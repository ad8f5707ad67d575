import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ceapsk
import ceapsk.cli
import ceapsk.sim as sim
from ceapsk.constellation import (qam_family, ser_union_bound,
                                  union_bound_threshold)
from ceapsk.optimizer import (_CellSearch, build_region_table,
                              build_suboptimal_table)
from ceapsk.rng import stream
from ceapsk.sim import (RateCurve, SerCurve, SimConfig, _least_feasible,
                        _psk_decide, _qam16_decide, _qam_limits, _rate_counts,
                        _RingTables, run_csit_sweep, run_fixed_rate_ser,
                        run_variable_rate, snr_at_bits, snr_at_ser,
                        union_bound_curve)


@pytest.fixture(scope="module")
def table16():
    return build_region_table(16)


@pytest.fixture
def set_chunk(monkeypatch):
    """set_chunk(size) sets the engines' chunk size for one test."""
    return functools.partial(monkeypatch.setattr, sim, "CHUNK_SIZE")


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(m=2, snr_db=(10.0,), trials=100, scheme="proposed-optimal")
    with pytest.raises(ValueError):
        SimConfig(m=2, snr_db=(10.0,), trials=10 ** 4, scheme="bogus")
    with pytest.raises(ValueError):
        SimConfig(m=2, snr_db=(10.0,), trials=10 ** 4,
                  scheme="proposed-optimal", target_ser=0.0)
    with pytest.raises(ValueError):
        SimConfig(m=2, snr_db=(10.0, 10.0), trials=10 ** 4,
                  scheme="proposed-optimal")
    with pytest.raises(ValueError, match="at least one point"):
        SimConfig(m=2, snr_db=(), trials=10 ** 4, scheme="proposed-optimal")


@pytest.mark.parametrize("field", ["m", "threads"])
def test_config_rejects_counts_below_one(field):
    kw = dict(m=2, snr_db=(10.0,), trials=10 ** 4, scheme="proposed-optimal")
    with pytest.raises(ValueError, match=field):
        SimConfig(**{**kw, field: 0})


@pytest.mark.parametrize("field", ["m", "trials", "threads", "seed"])
@pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, -math.inf, "8",
                                 None, 3 + 0j],
                         ids=["half", "nan", "inf", "-inf", "str", "none",
                              "complex"])
def test_config_integer_fields_follow_one_rule(field, bad):
    # a field that is no integer is named, never passed on to the engine
    kw = dict(m=2, snr_db=(10.0,), trials=10 ** 4, scheme="proposed-optimal")
    with pytest.raises(ValueError, match=f"^{field} must be a non-negative"):
        SimConfig(**{**kw, field: bad})


def test_config_stores_whole_numbers_as_ints():
    # 1e4 trials run as 10^4: the engines see ints, and the curve is the
    # one of the int config
    kw = dict(snr_db=(10.0, 20.0), scheme="variable-qam")
    cfg = SimConfig(m=2.0, trials=1e4, seed=np.float64(7.0),
                    threads=np.int64(2), **kw)
    fields = (cfg.m, cfg.trials, cfg.seed, cfg.threads)
    assert [type(v) for v in fields] == [int] * 4
    assert fields == (2, 10**4, 7, 2)
    want = run_variable_rate(SimConfig(m=2, trials=10**4, seed=7, **kw), None)
    got = run_variable_rate(cfg, None)
    assert got.avg_bits.tolist() == want.avg_bits.tolist()


@pytest.mark.parametrize("seed", [math.inf, math.nan, 0.5, -1])
def test_stream_seed_follows_the_integer_rule(seed):
    with pytest.raises(ValueError, match="^seed must be a non-negative"):
        stream(seed, 1)


def test_powers():
    cfg = SimConfig(m=2, snr_db=(0.0, 10.0), trials=10 ** 4,
                    scheme="proposed-optimal")
    unit = sim.NOISE_POWER / sim.PATH_LOSS  # the power at 0 dB SNR
    assert cfg.powers() == pytest.approx([unit, 10.0 * unit])
    # the paper's -90 dB path loss and -94 dBm noise power
    assert (sim.PATH_LOSS, sim.NOISE_POWER) == pytest.approx((1e-9, 10 ** -12.4))


def test_config_fields():
    # a run is set by these alone; link results depend on beta and sigma^2
    # only through the SNR, so those are module constants
    assert [f.name for f in dataclasses.fields(SimConfig)] == [
        "m", "snr_db", "trials", "scheme", "target_ser", "seed", "threads"]


def test_select_rate_limits():
    # at a vast SNR every trial sends the largest APSK size, at a tiny one
    # none sends
    cfg = SimConfig(m=2, snr_db=(-200.0, 300.0), trials=2000,
                    scheme="variable-apsk")
    curve = run_variable_rate(cfg, _rate_tables())
    assert curve.avg_bits.tolist() == [0.0, 6.0]
    assert curve.no_tx_fraction.tolist() == [1.0, 0.0]


def test_select_rate_qam_feasibility():
    # at ratio 0.4 only N in {2,4,8} are feasible for the QAM family
    for n in (2, 4, 8):
        assert _qam_limits(n)[0] >= 0.4
    for n in (16, 32, 64):
        assert _qam_limits(n)[0] < 0.4
    assert _qam_limits(8)[1] > 0.0


def test_zero_noise_zero_errors(table16):
    cfg = SimConfig(m=2, snr_db=(120.0,), trials=2000,
                    scheme="proposed-optimal")
    curve = run_fixed_rate_ser(cfg, table16)
    assert curve.errors[0] == 0


def test_missing_table_error():
    cfg = SimConfig(m=2, snr_db=(20.0,), trials=2000,
                    scheme="proposed-optimal")
    with pytest.raises(ValueError):
        run_fixed_rate_ser(cfg, None)


def test_seed_changes_results(table16):
    kw = dict(m=2, snr_db=(22.0,), trials=50_000, scheme="proposed-optimal")
    a = run_fixed_rate_ser(SimConfig(seed=0, **kw), table16)
    b = run_fixed_rate_ser(SimConfig(seed=1, **kw), table16)
    assert a.errors[0] != b.errors[0]


def test_union_bound_present_for_proposed(table16, set_chunk):
    # perfbench's "bound >= SER" output check reads the bound this way, and
    # skips the check when it finds none
    set_chunk(4_000)
    for scheme, facts in sim.SCHEMES.items():
        if facts.command != "ser" or facts.table is None:
            continue
        cfg = SimConfig(m=2, snr_db=(16.0, 20.0), trials=10 ** 4,
                        scheme=scheme)
        table = _scheme_table(scheme)
        bound = getattr(run_fixed_rate_ser(cfg, table), "union_bound", None)
        assert isinstance(bound, np.ndarray) and bound.size == 2
        np.testing.assert_array_equal(bound, union_bound_curve(cfg, table))
    cfg = SimConfig(m=2, snr_db=(20.0,), trials=10 ** 4,
                    scheme="fixed-qam16")
    assert run_fixed_rate_ser(cfg, None).union_bound is None
    with pytest.raises(ValueError, match="fixed-qam16"):
        union_bound_curve(cfg, None)
    assert run_csit_sweep(SimConfig(m=2, snr_db=(20.0,), trials=2000,
                                    scheme="proposed-optimal"),
                          table16, (10.0,)).union_bound is None


def test_union_bound_computed_only_when_read(table16, monkeypatch, tmp_path):
    bound_calls, curve_calls = [], []
    bound, curve_fn = sim.ser_union_bound, sim.union_bound_curve

    def counting_bound(*args):
        bound_calls.append(1)
        return bound(*args)

    def counting_curve(*args):
        curve_calls.append(1)
        return curve_fn(*args)
    monkeypatch.setattr(sim, "ser_union_bound", counting_bound)
    monkeypatch.setattr(sim, "union_bound_curve", counting_curve)
    cfg = SimConfig(m=2, snr_db=(16.0, 20.0), trials=5000,
                    scheme="proposed-optimal")
    curve = run_fixed_rate_ser(cfg, table16)
    assert ceapsk.cli.main(["ser", "--scheme", "proposed-optimal", "--snr",
                            "16:20:4", "--trials", "5000", "--out-dir",
                            str(tmp_path)]) == 0
    assert (bound_calls, curve_calls) == ([], [])
    first = curve.union_bound
    assert curve.union_bound is first
    assert len(curve_calls) == 1 and bound_calls


def _fresh_python(script, flags=(), args=()):
    """Run script in a new interpreter that imports this package's src."""
    src = str(Path(ceapsk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *flags, "-c", script, *args],
                          env=env, capture_output=True, text=True,
                          timeout=120)


# Runs a CLI command (sys.argv[1:], "OUT" standing for a fresh output
# directory) and prints which of scipy, scipy.special and statistics are
# loaded: after the import, at engine entry, after the run, and after the
# engine's curve has its union_bound read.
_SCIPY_PROBE = """
import json, sys, tempfile

def loaded():
    return [m for m in ("scipy", "scipy.special", "statistics")
            if m in sys.modules]

import ceapsk.cli as cli
seen, curves = {"import": loaded()}, []
for name in ("run_fixed_rate_ser", "run_csit_sweep", "run_variable_rate"):
    def wrapped(*args, engine=getattr(cli, name)):
        seen["engine"] = loaded()
        curves.append(engine(*args))
        return curves[-1]
    setattr(cli, name, wrapped)
with tempfile.TemporaryDirectory() as out:
    code = cli.main([out if a == "OUT" else a for a in sys.argv[1:]])
seen["run"] = loaded()
has_bound = [getattr(c, "union_bound", None) is not None for c in curves]
seen["bound"] = loaded()
print(json.dumps({"code": code, "seen": seen, "has_bound": has_bound}))
"""
_NONE = []
_SCIPY_LOADED = {
    # command: (args, where scipy or statistics is loaded, has_bound)
    "design": (["design", "--n", "16", "--ratio", "0.4"],
               dict(run=_NONE, bound=_NONE), []),
    "table": (["table", "--n", "8", "--out-dir", "OUT"],
              dict(run=_NONE, bound=_NONE), []),
    "cdf": (["cdf", "--trials", "2e3", "--points", "5", "--out-dir", "OUT"],
            dict(run=_NONE, bound=_NONE), []),
    "ser-csit": (["ser", "--scheme", "proposed-optimal", "--snr", "20",
                  "--csit-sweep", "0:10:10", "--trials", "2e3",
                  "--out-dir", "OUT"],
                 dict(engine=_NONE, run=_NONE, bound=_NONE), [False]),
    # the bound, read after the engine returns, uses constellation's own
    # Cephes erfc port
    "ser": (["ser", "--scheme", "proposed-optimal", "--snr", "16:20:4",
             "--trials", "2e3", "--out-dir", "OUT"],
            dict(engine=_NONE, run=_NONE, bound=_NONE), [True]),
    # the rate thresholds take the normal quantile from statistics, which
    # union_bound_threshold imports inside the engine
    "rate": (["rate", "--scheme", "variable-qam", "--snr", "0:10:5",
              "--trials", "2e3", "--out-dir", "OUT"],
             dict(engine=_NONE, run=["statistics"], bound=["statistics"]),
             [False]),
}


@pytest.mark.parametrize("command", _SCIPY_LOADED)
def test_scipy_loaded_only_where_needed(command):
    args, where, has_bound = _SCIPY_LOADED[command]
    run = _fresh_python(_SCIPY_PROBE, args=args)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout.splitlines()[-1])
    assert got == {"code": 0, "seen": {"import": _NONE, **where},
                   "has_bound": has_bound}


def test_debug_feasibility_checks(table16, monkeypatch):
    cfg = SimConfig(m=2, snr_db=(20.0,), trials=5000,
                    scheme="proposed-optimal")
    # the screen's annulus check must not fire on a normal run
    run_fixed_rate_ser(cfg, table16)
    run_csit_sweep(cfg, table16, (0.0,))
    # with every symbol scaled by 2, R s reaches 2 R on the outer ring, and
    # the check fires in both engines
    symbols = _RingTables.symbols
    monkeypatch.setattr(_RingTables, "symbols",
                        lambda self, *a: 2.0 * symbols(self, *a))
    with pytest.raises(RuntimeError, match="target left the annulus"):
        run_fixed_rate_ser(cfg, table16)
    with pytest.raises(RuntimeError, match="target left the annulus"):
        run_csit_sweep(cfg, table16, (0.0,))
    # and still under python -O
    script = textwrap.dedent("""
        import sys
        import ceapsk.sim as sim
        from ceapsk.optimizer import build_region_table
        if sys.flags.optimize != 1:
            sys.exit(3)
        symbols = sim._RingTables.symbols
        sim._RingTables.symbols = lambda self, *a: 2.0 * symbols(self, *a)
        cfg = sim.SimConfig(m=2, snr_db=(20.0,), trials=2000,
                            scheme="proposed-optimal")
        table = build_region_table(16)
        for run in (lambda: sim.run_fixed_rate_ser(cfg, table),
                    lambda: sim.run_csit_sweep(cfg, table, (0.0,))):
            try:
                run()
            except RuntimeError as e:
                if "target left the annulus" not in str(e):
                    sys.exit(f"another check fired: {e}")
            else:
                sys.exit("the annulus check did not fire")
    """)
    run = _fresh_python(script, flags=["-O"])
    assert run.returncode == 0, run.stderr


def test_csit_sweep_shape(table16):
    cfg = SimConfig(m=2, snr_db=(20.0,), trials=20_000,
                    scheme="proposed-optimal")
    curve = run_csit_sweep(cfg, table16, (0.0, 30.0))
    assert curve.snr_db.size == 3
    assert curve.snr_db[-1] == np.inf
    assert curve.errors[0] >= curve.errors[-1]


def test_csit_sweep_single_data_snr_required(table16):
    cfg = SimConfig(m=2, snr_db=(20.0, 24.0), trials=20_000,
                    scheme="proposed-optimal")
    with pytest.raises(ValueError):
        run_csit_sweep(cfg, table16, (0.0,))


def test_variable_rate_nondecreasing():
    cfg = SimConfig(m=2, snr_db=(0.0, 5.0, 10.0, 15.0, 20.0),
                    trials=100_000, scheme="variable-qam")
    curve = run_variable_rate(cfg, None)
    assert np.all(np.diff(curve.avg_bits) >= -1e-12)
    assert np.all(curve.avg_bits <= 6.0)
    assert np.all((0 <= curve.no_tx_fraction) & (curve.no_tx_fraction <= 1))


def test_variable_rate_needs_tables():
    cfg = SimConfig(m=2, snr_db=(10.0,), trials=10 ** 4,
                    scheme="variable-apsk")
    with pytest.raises(ValueError):
        run_variable_rate(cfg, None)


# the schemes each entry point runs
_ENTRY_SCHEMES = {
    "run_fixed_rate_ser": {"proposed-optimal", "proposed-suboptimal",
                           "fixed-qam16", "adaptive-qam-psk", "egt-qam16"},
    "run_csit_sweep": {"proposed-optimal", "proposed-suboptimal",
                       "egt-qam16"},
    "run_variable_rate": {"variable-apsk", "variable-qam"},
    "union_bound_curve": {"proposed-optimal", "proposed-suboptimal"},
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_SCHEMES))
@pytest.mark.parametrize("scheme", sorted(sim.SCHEMES))
def test_entry_points_reject_schemes_they_do_not_run(scheme, entry):
    # each call gets the table(s) its scheme needs, so that only the
    # scheme can be at fault; a scheme the entry point runs goes through
    cfg = SimConfig(m=2, snr_db=(20.0,), trials=1000, scheme=scheme)
    tables = (_rate_tables() if scheme == "variable-apsk"
              else _scheme_table(scheme))
    args = (cfg, tables) + (((10.0,),) if entry == "run_csit_sweep" else ())
    if scheme in _ENTRY_SCHEMES[entry]:
        getattr(sim, entry)(*args)
    else:
        with pytest.raises(ValueError, match=f"'{scheme}'"):
            getattr(sim, entry)(*args)


def test_snr_at_ser_interpolation():
    curve = SerCurve(snr_db=np.array([10.0, 20.0]),
                     errors=np.array([1000, 10]),
                     trials=np.array([10 ** 5, 10 ** 5]))
    # log-linear: ser 1e-2 -> 1e-4 over 10 dB, crosses 1e-3 at 15 dB
    assert snr_at_ser(curve, 1e-3) == pytest.approx(15.0)
    with pytest.raises(ValueError):
        snr_at_ser(curve, 1e-6)


def test_snr_at_bits_interpolation():
    curve = RateCurve(snr_db=np.array([0.0, 10.0]),
                      avg_bits=np.array([2.0, 4.0]),
                      no_tx_fraction=np.array([0.0, 0.0]), trials=1)
    assert snr_at_bits(curve, 3.0) == pytest.approx(5.0)


def test_curve_csv(tmp_path):
    curve = SerCurve(snr_db=np.array([10.0]), errors=np.array([5]),
                     trials=np.array([100]))
    path = tmp_path / "c.csv"
    curve.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "snr_db,ser,errors,trials"
    assert lines[1].startswith("10,5.0000000000e-02,5,100")


# ---------------------------------------------------------------------------
# Structured detectors against the brute-force argmin oracle


@functools.lru_cache(maxsize=None)
def _table(n, suboptimal=False):
    table = build_region_table(n)
    return build_suboptimal_table(table) if suboptimal else table


_REGIONS = ([(n, False, r) for n in (8, 16, 32, 64)
             for r in range(len(_table(n).regions))]
            + [(16, True, r) for r in range(2)])


def _brute_force(w, pts):
    """argmin_k |w - pts[k]| per sample: the oracle, and each sample's
    nearest distance and margin to the second-nearest point."""
    dist = np.abs(w[:, None] - pts[None, :])
    near = np.sort(dist, axis=1)
    return np.argmin(dist, axis=1), dist, near[:, 1] - near[:, 0]


def _assert_ml(labels, w, pts):
    """Labels name a nearest point; off ties they equal the oracle's."""
    oracle, dist, margin = _brute_force(w, pts)
    rows = np.arange(w.size)
    np.testing.assert_allclose(dist[rows, labels], dist[rows, oracle],
                               rtol=0, atol=1e-12)
    clear = margin > 1e-9
    np.testing.assert_array_equal(labels[clear], oracle[clear])
    return clear


def _probe_points(rng, angles, radii, spread):
    """Random samples, samples on the given angles at the given radii, and
    the same nudged by +-1e-12 rad, so ties and near-ties are both hit."""
    w = spread * (rng.standard_normal(200) + 1j * rng.standard_normal(200))
    ang = np.concatenate([angles, angles + 1e-12, angles - 1e-12])
    on = (np.asarray(radii)[:, None] * np.exp(1j * ang)[None, :]).ravel()
    return np.concatenate([w, on])


@pytest.mark.parametrize("n,suboptimal,region", _REGIONS)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(frac=st.floats(0.0, 1.0, exclude_max=True),
       seed=st.integers(0, 2 ** 32 - 1))
def test_two_ring_detector_matches_brute_force(n, suboptimal, region, frac,
                                               seed):
    table = _table(n, suboptimal)
    reg = table.regions[region]
    ratio = float(reg.lo + frac * (reg.hi - reg.lo))
    ratio = ratio if ratio < reg.hi else float(reg.lo)  # rounded up onto hi
    idx, n2, om, rho2 = table.params_at(np.array([ratio]))
    assert idx[0] == region
    n2, om, rho2 = int(n2[0]), float(om[0]), float(rho2[0])
    n1 = n - n2
    # the point set as the design defines it, outer ring first
    pts = np.concatenate([np.exp(2j * np.pi * np.arange(n1) / n1),
                          rho2 * np.exp(1j * (2.0 * np.pi * np.arange(n2) / n2
                                              + om))])
    rng = np.random.default_rng(seed)
    # mid-angles between neighbours on each ring, and the +-pi wrap
    angles = np.concatenate([(2.0 * np.arange(n1) + 1.0) * np.pi / n1,
                             (2.0 * np.arange(n2) + 1.0) * np.pi / n2 + om,
                             [np.pi, -np.pi]])
    radii = [1.0, rho2, (1.0 + rho2) / 2.0, 0.05, 1.7, rng.uniform(0.0, 1.5)]
    w = _probe_points(rng, angles, radii, 0.6)
    u = rng.integers(0, n, size=w.size)
    t_idx, t_rho2 = np.full(w.size, region), np.full(w.size, rho2)
    rings = _RingTables(table)
    s, decide = rings.symbols(t_idx, t_rho2, u), rings.detector(t_idx, t_rho2)
    # symbols are bit-identical to the defined points
    np.testing.assert_array_equal(s, pts[u])
    clear = _assert_ml(decide(w.real, w.imag), w, pts)
    assert clear.sum() >= 200


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_qam16_slicer_matches_brute_force(seed):
    pts = qam_family(16)
    rng = np.random.default_rng(seed)
    w = 0.7 * (rng.standard_normal(300) + 1j * rng.standard_normal(300))
    # samples on and next to every decision edge, and on the grid corners
    edges = np.array([-2.0, 0.0, 2.0]) / (3.0 * np.sqrt(2.0))
    lines = np.concatenate([edges, edges + 1e-12, edges - 1e-12])
    free = rng.uniform(-1.2, 1.2, lines.size)
    w = np.concatenate([w, lines + 1j * free, free + 1j * lines, pts,
                        1.5 * pts])
    _assert_ml(_qam16_decide(w.real, w.imag), w, pts)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_psk16_rounding_matches_brute_force(seed):
    pts = np.exp(2j * np.pi * np.arange(16) / 16)
    rng = np.random.default_rng(seed)
    angles = np.concatenate([(2.0 * np.arange(16) + 1.0) * np.pi / 16,
                             [np.pi, -np.pi]])
    w = _probe_points(rng, angles, [1.0, 0.3, rng.uniform(0.0, 2.0)], 0.8)
    _assert_ml(_psk_decide(w.real, w.imag), w, pts)


def _scheme_table(scheme, n=16):
    if scheme == "proposed-optimal":
        return _table(n)
    return _table(n, True) if scheme == "proposed-suboptimal" else None


# ---------------------------------------------------------------------------
# Pinned engine outputs


# Error counts of the brute-force detector, recorded before the structured
# detectors replaced it (seed 5, 2e4 trials in chunks of 8000).
_PINNED_FIXED = {
    ("proposed-optimal", 2): [3074, 479, 49],
    ("proposed-optimal", 3): [1357, 77, 2],
    ("proposed-suboptimal", 2): [3275, 572, 68],
    ("proposed-suboptimal", 3): [1382, 87, 3],
    ("fixed-qam16", 2): [4509, 1246, 523],
    ("fixed-qam16", 3): [2274, 220, 35],
    ("adaptive-qam-psk", 2): [4211, 807, 69],
    ("adaptive-qam-psk", 3): [2263, 187, 6],
    ("egt-qam16", 2): [4094, 714, 55],
    ("egt-qam16", 3): [2250, 179, 6],
}
_PINNED_CSIT = {
    "proposed-optimal": [11460, 1688, 33, 3],
    "proposed-suboptimal": [11458, 1691, 33, 3],
    "egt-qam16": [9922, 1412, 39, 13],
}


# The same counts, recorded with each chunk screened and precoded whole
# (seed 5, 45,000 trials in chunks of 20,000, SNR 12/18/24 dB).  A 20,000-
# trial chunk spans blocks of 8192 + 8192 + 3616 rows, and the last chunk
# holds 5,000 trials.  Each block's kept trials are joined and detected a
# chunk at a time.
_PINNED_FIXED_BLOCKS = {
    ("adaptive-qam-psk", 2): [9423, 1761, 164],
    ("adaptive-qam-psk", 4): [2637, 99, 1],
    ("adaptive-qam-psk", 8): [260, 1, 0],
    ("egt-qam16", 2): [9144, 1560, 132],
    ("egt-qam16", 4): [2633, 94, 1],
    ("egt-qam16", 8): [260, 1, 0],
    ("fixed-qam16", 2): [10084, 2795, 1262],
    ("fixed-qam16", 4): [2637, 97, 2],
    ("fixed-qam16", 8): [260, 1, 0],
    ("proposed-optimal", 2): [6906, 1088, 80],
    ("proposed-optimal", 4): [1333, 34, 1],
    ("proposed-optimal", 8): [83, 0, 0],
    ("proposed-suboptimal", 2): [7388, 1253, 116],
    ("proposed-suboptimal", 4): [1333, 35, 1],
    ("proposed-suboptimal", 8): [83, 0, 0],
}


# Union-bound column summed over whole chunks, recorded before the sum was
# blocked over rows (seed 5, 2e4 trials at SNR 12/18/24 dB); chunks of 2e4
# span several row blocks.
_PINNED_BOUND = {
    ("proposed-optimal", 2, 8_000): [0.5566091187751877, 0.10817040551260773,
                                     0.010432154769629021],
    ("proposed-optimal", 3, 8_000): [0.31251220016166065, 0.020841142434121305,
                                     0.0005446710221898022],
    ("proposed-suboptimal", 2, 8_000): [0.5920086297370848, 0.13352974209150117,
                                        0.014253322030944642],
    ("proposed-suboptimal", 3, 8_000): [0.31580880263043726, 0.02288912985358386,
                                        0.0006458411139390354],
    ("proposed-optimal", 2, 20_000): [0.5510581380512877, 0.10609725330465894,
                                      0.009740541458086557],
}


# The same sweep across block boundaries, recorded with the kept rows
# gathered by fancy indexing (seed 5, 45,000 trials in chunks of 20,000:
# blocks of 8192 + 8192 + 3616 rows, and a last chunk of 5,000 trials).
_PINNED_CSIT_BLOCKS = {
    ("egt-qam16", 2): [25209, 8502, 1418, 737],
    ("egt-qam16", 4): [22258, 3248, 90, 15],
    ("proposed-optimal", 2): [29986, 11325, 1544, 509],
    ("proposed-optimal", 4): [25909, 3952, 70, 3],
    ("proposed-suboptimal", 2): [29652, 11607, 1732, 599],
    ("proposed-suboptimal", 4): [25909, 3961, 72, 4],
}


# avg_bits and no_tx_fraction of the per-SNR-point selection, recorded
# before the one-pass selection replaced it (seed 5, 2e4 trials in chunks
# of 8000, SNR 0:30:5 dB).
_PINNED_RATE = {
    ("variable-apsk", 2): (
        [0.0315, 0.5781, 1.5856, 2.616, 3.70715, 4.7167, 5.57945],
        [0.9686, 0.5097, 0.1058, 0.01255, 0.0013, 5e-05, 0.0]),
    ("variable-apsk", 4): (
        [0.1837, 1.24735, 2.34025, 3.42585, 4.46115, 5.3683, 5.95175],
        [0.8175, 0.11575, 0.0022, 0.0, 0.0, 0.0, 0.0]),
    ("variable-qam", 2): (
        [0.0315, 0.57805, 1.53985, 2.3746, 3.1937, 3.7807, 4.06195],
        [0.9686, 0.5097, 0.1058, 0.01255, 0.0013, 5e-05, 0.0]),
    ("variable-qam", 4): (
        [0.1837, 1.2456, 2.1097, 3.15635, 4.5093, 5.5499, 5.9432],
        [0.8175, 0.11575, 0.0022, 0.0, 0.0, 0.0, 0.0]),
}


# The same, recorded with the whole chunk handled at once (seed 5, 45,000
# trials in chunks of 20,000, SNR 0:30:5 dB).  A 20,000-trial chunk spans
# blocks of 8192 + 8192 + 3616 rows, and the last chunk holds 5,000 trials.
_PINNED_RATE_BLOCKS = {
    ("variable-apsk", 2): (
        [0.032733333333333337, 0.5771555555555555, 1.5833777777777778, 2.6088,
         3.7016444444444443, 4.711155555555556, 5.577333333333334],
        [0.9673111111111111, 0.5099333333333333, 0.10675555555555556,
         0.013533333333333333, 0.0012, 0.00022222222222222223, 0.0]),
    ("variable-apsk", 4): (
        [0.18566666666666667, 1.2466444444444444, 2.3377333333333334,
         3.4273777777777776, 4.4654, 5.368955555555556, 5.9507111111111115],
        [0.8151777777777778, 0.11586666666666667, 0.0032,
         8.888888888888889e-05, 0.0, 0.0, 0.0]),
    ("variable-qam", 2): (
        [0.032733333333333337, 0.5770666666666666, 1.5397777777777777, 2.3732,
         3.195866666666667, 3.7852, 4.067911111111111],
        [0.9673111111111111, 0.5099333333333333, 0.10675555555555556,
         0.013533333333333333, 0.0012, 0.00022222222222222223, 0.0]),
    ("variable-qam", 4): (
        [0.18566666666666667, 1.2454, 2.1109333333333336, 3.1557333333333335,
         4.5078, 5.548355555555555, 5.943177777777778],
        [0.8151777777777778, 0.11586666666666667, 0.0032,
         8.888888888888889e-05, 0.0, 0.0, 0.0]),
}


# Each family of pins above runs on its own grid at seed 5; "bound" is the
# fixed-rate union bound.
_GRIDS = {"ser": (12.0, 18.0, 24.0), "bound": (12.0, 18.0, 24.0),
          "csit": (20.0,), "rate": (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)}


def _pinned_output(engine, cfg):
    """The pinned columns of engine's run of cfg, as one array."""
    if engine == "rate":
        curve = run_variable_rate(cfg, _rate_tables())
        return np.stack([curve.avg_bits, curve.no_tx_fraction])
    table = _scheme_table(cfg.scheme)
    if engine == "csit":
        return run_csit_sweep(cfg, table, (0.0, 10.0, 20.0)).errors
    if engine == "bound":
        return union_bound_curve(cfg, table)
    return run_fixed_rate_ser(cfg, table).errors


def _check_pinned(pin, engine, scheme, m, chunk, trials, set_chunk):
    set_chunk(chunk)
    cfg = SimConfig(m=m, snr_db=_GRIDS[engine], trials=trials, scheme=scheme,
                    seed=5)
    one = _pinned_output(engine, cfg)
    if engine == "bound":
        assert one.tolist() == pytest.approx(pin, rel=1e-12, abs=0.0)
    else:
        assert one.tolist() == list(pin)
    # bit for bit the same at 2 threads
    two = _pinned_output(engine, dataclasses.replace(cfg, threads=2))
    assert (two.dtype, two.shape, two.tobytes()) == (one.dtype, one.shape,
                                                     one.tobytes())


# one test per table of pins, each row checked by _check_pinned
@pytest.mark.parametrize("scheme,m", sorted(_PINNED_FIXED))
def test_fixed_rate_error_counts_pinned(scheme, m, set_chunk):
    _check_pinned(_PINNED_FIXED[scheme, m], "ser", scheme, m, 8_000, 20_000,
                  set_chunk)


@pytest.mark.parametrize("scheme,m", sorted(_PINNED_FIXED_BLOCKS))
def test_fixed_rate_blocks_pinned(scheme, m, set_chunk):
    _check_pinned(_PINNED_FIXED_BLOCKS[scheme, m], "ser", scheme, m, 20_000,
                  45_000, set_chunk)


@pytest.mark.parametrize("scheme,m,chunk", sorted(_PINNED_BOUND))
def test_union_bound_pinned(scheme, m, chunk, set_chunk):
    _check_pinned(_PINNED_BOUND[scheme, m, chunk], "bound", scheme, m, chunk,
                  20_000, set_chunk)


@pytest.mark.parametrize("scheme", sorted(_PINNED_CSIT))
def test_csit_sweep_error_counts_pinned(scheme, set_chunk):
    _check_pinned(_PINNED_CSIT[scheme], "csit", scheme, 4, 8_000, 20_000,
                  set_chunk)


@pytest.mark.parametrize("scheme,m", sorted(_PINNED_CSIT_BLOCKS))
def test_csit_sweep_blocks_pinned(scheme, m, set_chunk):
    _check_pinned(_PINNED_CSIT_BLOCKS[scheme, m], "csit", scheme, m, 20_000,
                  45_000, set_chunk)


@pytest.mark.parametrize("scheme,m", sorted(_PINNED_RATE))
def test_variable_rate_pinned(scheme, m, set_chunk):
    _check_pinned(_PINNED_RATE[scheme, m], "rate", scheme, m, 8_000, 20_000,
                  set_chunk)


@pytest.mark.parametrize("scheme,m", sorted(_PINNED_RATE_BLOCKS))
def test_variable_rate_blocks_pinned(scheme, m, set_chunk):
    _check_pinned(_PINNED_RATE_BLOCKS[scheme, m], "rate", scheme, m, 20_000,
                  45_000, set_chunk)


def test_fixed_rate_memory_is_bounded(table16):
    # ser-apsk16-m2's configuration at 2e5 trials: the engine's per-trial
    # work runs in row blocks, so its traced peak stays near the chunk's
    # draws (5.6 MB) and kept trials, not a multiple of the chunk
    cfg = SimConfig(m=2, snr_db=tuple(float(s) for s in range(10, 25)),
                    trials=200_000, scheme="proposed-optimal")
    tracemalloc.start()
    try:
        run_fixed_rate_ser(cfg, table16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20


def test_csit_memory_is_bounded(table16):
    # csit-apsk16-m4's configuration: the noise and the unit CSIT error's
    # real parts are replayed block by block from copied stream states and
    # the labels are one byte each, so the peak sits on the chunk's channel
    # blocks (6.4 MB) and one block's work in the precoder (11.3 MiB here,
    # 16.5 with all three held whole)
    cfg = SimConfig(m=4, snr_db=(20.0,), trials=200_000,
                    scheme="proposed-optimal")
    tracemalloc.start()
    try:
        run_csit_sweep(cfg, table16, tuple(float(s) for s in range(0, 31, 2)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13 * 2**20


class _InlinePool:
    """ThreadPoolExecutor stand-in that runs every task inline, in order,
    and records the max_workers it was opened with."""
    opened = []

    def __init__(self, max_workers):
        self.opened.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("threads,chunks,workers", [
    (64, 2, [2]), (2, 5, [2]), (3, 3, [3]), (4, 1, []), (1, 4, [])])
def test_pool_has_at_most_one_worker_per_chunk(threads, chunks, workers,
                                               monkeypatch, set_chunk):
    monkeypatch.setattr(sim, "ThreadPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "opened", [])
    set_chunk(2_000)  # the last chunk holds 1,500 trials
    cfg = SimConfig(m=2, snr_db=(10.0,), trials=2_000 * chunks - 500,
                    scheme="proposed-optimal", threads=threads, seed=7)
    events, make = [], sim.stream

    def stream(*key):
        events.append("stream")
        return make(*key)

    def one_chunk(rng, t):
        events.append("chunk")
        ss = rng.bit_generator.seed_seq  # keyed (seed, engine key, chunk)
        return (np.array([1, ss.entropy, *ss.spawn_key, t]),)
    monkeypatch.setattr(sim, "stream", stream)
    sums = sim._reduce_chunks(cfg, "rate", one_chunk)
    assert _InlinePool.opened == workers
    assert sums[0].tolist() == [chunks, 7 * chunks, 2 * chunks,
                                chunks * (chunks - 1) // 2, cfg.trials]
    # each stream is formed in the worker that runs its chunk, not up front
    assert events == ["stream", "chunk"] * chunks


def test_config_bounds_threads_and_trials():
    kw = dict(m=2, snr_db=(10.0,), scheme="proposed-optimal")
    cfg = SimConfig(trials=sim.MAX_TRIALS, threads=sim.MAX_THREADS, **kw)
    assert (cfg.trials, cfg.threads) == (10**9, 256)
    with pytest.raises(ValueError, match="threads must be at most 256"):
        SimConfig(trials=10**4, threads=257, **kw)
    for trials in (10**9 + 1, 10**300):
        with pytest.raises(ValueError, match="trials must lie in"):
            SimConfig(trials=trials, **kw)
    kw = dict(scheme="proposed-optimal", trials=10**4)
    cfg = SimConfig(m=sim.MAX_ANTENNAS,
                    snr_db=(-sim.MAX_SNR_DB, sim.MAX_SNR_DB), **kw)
    assert (cfg.m, cfg.snr_db) == (64, (-300.0, 300.0))
    for m in (65, 10**6):
        with pytest.raises(ValueError, match="m must be at most 64"):
            SimConfig(m=m, snr_db=(10.0,), **kw)
    for snr in (300.5, -300.5, 4000.0, -4000.0, 1e308):
        with pytest.raises(ValueError,
                           match=r"snr_db must lie in \[-300, 300\]"):
            SimConfig(m=2, snr_db=(snr,), **kw)
    # a non-finite SNR is named as such, before the range check
    with pytest.raises(ValueError, match="snr_db must be finite"):
        SimConfig(m=2, snr_db=(math.inf,), **kw)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_engines_run_warning_free_at_the_snr_bounds():
    edges = (-sim.MAX_SNR_DB, sim.MAX_SNR_DB)
    kw = dict(m=3, snr_db=edges, trials=2_000)
    for scheme in sim.ENGINE_SCHEMES["ser"]:
        curve = run_fixed_rate_ser(SimConfig(scheme=scheme, **kw),
                                   _scheme_table(scheme))
        # every symbol errs at -300 dB up to chance; at +300 dB only a
        # clipped fixed-qam16 point can
        floor = 2_000 if sim.SCHEMES[scheme].qam16 == "clip" else 0
        assert curve.errors[0] > 1_000 and curve.errors[1] <= floor
    for scheme in sim.ENGINE_SCHEMES["csit"]:
        for snr in edges:
            cfg = SimConfig(scheme=scheme, **dict(kw, snr_db=(snr,)))
            run_csit_sweep(cfg, _scheme_table(scheme), edges)
    for scheme in sim.ENGINE_SCHEMES["rate"]:
        curve = run_variable_rate(SimConfig(scheme=scheme, **kw),
                                  _rate_tables())
        assert curve.avg_bits[0] == 0.0 < curve.avg_bits[1]


# ---------------------------------------------------------------------------
# Rate selection against the per-SNR-point oracle


def _brute_force_rate(x, sqrt_p, thresholds, bits):
    """The O(T J K) selection: at each SNR point, the largest size j with
    x[j] > 0 and sqrt(p) x[j] >= thresholds[j], else no transmission."""
    x = x.T
    no_tx = np.zeros(sqrt_p.size, dtype=np.int64)
    bit_sum = np.zeros(sqrt_p.size)
    for k, sp in enumerate(sqrt_p):
        ok = (sp * x >= thresholds[None, :]) & (x > 0)
        best_bits = np.where(ok.any(axis=1),
                             bits[np.where(ok, np.arange(bits.size),
                                           -1).max(axis=1)], 0.0)
        bit_sum[k] = best_bits.sum()
        no_tx[k] = np.count_nonzero(~ok.any(axis=1))
    return no_tx, bit_sum


def _searches(least):
    """The per-size lookups that run_variable_rate builds from least."""
    return [_CellSearch(cuts) for cuts in least[::-1].T]


@pytest.mark.parametrize("k_pts", [1, 2, 31])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       target_ser=st.sampled_from([1e-3, 0.2, 0.6]),
       n_sizes=st.integers(1, 6), dense=st.booleans())
def test_rate_selection_matches_brute_force(k_pts, seed, target_ser, n_sizes,
                                            dense):
    rng = np.random.default_rng(seed)
    # a dense grid puts several SNR cuts of one size in one lookup cell
    grid = (rng.uniform(-10.0, 40.0) + 0.01 * np.arange(k_pts) if dense
            else np.arange(-10.0, 41.0, 0.5))
    snr = np.sort(rng.choice(grid, k_pts, replace=False))
    if k_pts > 1:  # two grid points a hair apart, so sqrt(p) may repeat
        snr[1] = np.nextafter(snr[0], np.inf)
    cfg = SimConfig(m=2, snr_db=tuple(snr), trials=1000,
                    scheme="variable-qam", target_ser=target_ser)
    sqrt_p = np.sqrt(cfg.powers())
    sizes = np.sort(rng.choice([2, 4, 8, 16, 32, 64], n_sizes, replace=False))
    bits = np.log2(sizes)
    thresholds = np.array([union_bound_threshold(n, target_ser,
                                                 sim.NOISE_POWER)
                           for n in sizes])
    least = _least_feasible(sqrt_p, thresholds)
    # least[k, j] is exactly the smallest x passing the test at (k, j)
    below = np.nextafter(least, 0.0)
    assert np.all(sqrt_p[:, None] * least >= thresholds)
    assert not np.any((below > 0) & (sqrt_p[:, None] * below >= thresholds))
    # per size: x exactly on thr / sqrt(p_k), one and two ulps either side,
    # zero, and random values around the thresholds
    pools = []
    for thr in thresholds:
        on = thr / sqrt_p
        near = [on, np.nextafter(on, 0.0), np.nextafter(on, np.inf),
                np.nextafter(np.nextafter(on, 0.0), 0.0),
                np.nextafter(np.nextafter(on, np.inf), np.inf)]
        scale = thr if thr > 0 else 1e-6
        pools.append(np.concatenate(
            near + [[0.0, np.nextafter(0.0, 1.0)],
                    scale * rng.uniform(0.0, 2.0, 50) / rng.choice(sqrt_p, 50)]))
    x = np.stack([rng.choice(pool, 400) for pool in pools])
    no_tx, bit_sum = _rate_counts(x, _searches(least),
                                  np.diff(bits, prepend=0.0))
    want_no_tx, want_bits = _brute_force_rate(x, sqrt_p, thresholds, bits)
    np.testing.assert_array_equal(no_tx, want_no_tx)
    np.testing.assert_array_equal(bit_sum, want_bits)


def test_least_feasible_degenerate_powers():
    # zero power: no positive x passes a positive threshold, any x > 0
    # passes a zero one; neither case warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        least = _least_feasible(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
    assert least[0, 0] == np.nextafter(0.0, 1.0)
    assert least[0, 1] == np.inf
    assert least[1].tolist() == [np.nextafter(0.0, 1.0), 2.0]


def test_least_feasible_infinite_threshold_stays_inf():
    # an infinite threshold (an underflowed tail) is met by no R d_min, also
    # where sqrt(p) > 1 makes sqrt(p) * DBL_MAX overflow to inf
    least = _least_feasible(np.array([2.0, 1e13]), np.array([np.inf, 1e-5]))
    assert least[:, 0].tolist() == [np.inf, np.inf]
    assert np.all(np.array([2.0, 1e13]) * least[:, 1] >= 1e-5)


def test_union_bound_threshold_round_trip():
    sigma2 = sim.NOISE_POWER
    for n in (2, 3, 4, 8, 16, 32, 64, 256):
        thr = union_bound_threshold(n, 1e-3, sigma2)
        above = ser_union_bound(n, 1.0, thr * (1 + 1e-9), sigma2)
        below = ser_union_bound(n, 1.0, thr * (1 - 1e-9), sigma2)
        assert above < 1e-3 < below
    assert union_bound_threshold(2, 0.5, sigma2) == 0.0
    assert union_bound_threshold(3, 0.5, sigma2) > 0.0


# union_bound_threshold(n, 1e-3, NOISE_POWER) for the rate schemes' sizes,
# recorded with scipy.special.erfcinv before the thresholds stopped using
# it; the standard library's normal quantile moves five of them by 1-4 ulps
_PINNED_THRESHOLDS = {
    2: "0x1.7218edd0dce02p-19", 4: "0x1.978c2a7b4c8f2p-19",
    8: "0x1.b27e2446fde32p-19", 16: "0x1.c985f05983e78p-19",
    32: "0x1.de88aa688b8d9p-19", 64: "0x1.f248cc438b3d8p-19",
}


def test_default_thresholds_pinned():
    assert sim.SIZES == tuple(_PINNED_THRESHOLDS)
    for n in sim.SIZES:
        want = float.fromhex(_PINNED_THRESHOLDS[n])
        got = union_bound_threshold(n, 1e-3, sim.NOISE_POWER)
        assert abs(got - want) <= 2e-15 * want, n


def test_select_rate_shares_the_array_rule():
    # at R d_min exactly on the threshold the size is chosen, one ulp below
    # it is not; a zero distance never is, even with a zero threshold
    sqrt_p, step = np.array([1.0]), np.array([1.0, 3.0])  # sizes 2 and 16
    thr = union_bound_threshold(16, 1e-3, 1.0)
    least = _least_feasible(sqrt_p, np.array([np.inf, thr]))
    x = np.array([[0.0, 0.0], [thr, np.nextafter(thr, 0.0)]])
    assert [c.tolist() for c in _rate_counts(x, _searches(least), step)] == \
        [[1], [4.0]]
    least = _least_feasible(sqrt_p, np.array([0.0, np.inf]))
    x = np.array([[0.0], [0.0]])
    assert [c.tolist() for c in _rate_counts(x, _searches(least), step)] == \
        [[1], [0.0]]


def _rate_tables():
    return {n: _table(n) for n in (2, 4, 8, 16, 32, 64)}


# ---------------------------------------------------------------------------
# Zero-norm channels


def _zero_some_rows(monkeypatch, every=97):
    # every 97th row of each chunk's channel, in the one channel draw
    blocks = sim._channel_blocks

    def patched(rng, m, t, path_loss):
        for lo, block in blocks(rng, m, t, path_loss):
            block[-lo % every::every] = 0.0
            yield lo, block
    monkeypatch.setattr(sim, "_channel_blocks", patched)
    return len(range(0, 2000, every))  # zeroed rows in a 2000-trial chunk


@pytest.mark.parametrize("scheme", ["proposed-optimal", "proposed-suboptimal",
                                    "fixed-qam16", "adaptive-qam-psk",
                                    "egt-qam16"])
def test_zero_norm_channel_is_an_error(scheme, monkeypatch):
    kw = dict(m=2, snr_db=(20.0, 120.0), trials=2000, scheme=scheme)
    plain = run_fixed_rate_ser(SimConfig(**kw), _scheme_table(scheme))
    zeroed = _zero_some_rows(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = run_fixed_rate_ser(SimConfig(**kw), _scheme_table(scheme))
        if scheme in ("proposed-optimal", "egt-qam16"):
            # the perfect-CSIT point designs from the zero channels
            sweep = run_csit_sweep(SimConfig(**{**kw, "snr_db": (120.0,)}),
                                   _scheme_table(scheme), (30.0,))
            assert sweep.errors[-1] >= zeroed
    assert np.all(curve.errors >= zeroed)
    assert np.all(curve.errors <= plain.errors + zeroed)
    if plain.errors[1] == 0:  # noise-free: exactly the zero-norm trials fail
        assert curve.errors[1] == zeroed


@pytest.mark.parametrize("scheme", sim.ENGINE_SCHEMES["ser"])
def test_zero_norm_rows_never_reach_the_precoder(scheme, monkeypatch):
    # the shared screen counts a zero-norm trial as an error and drops it;
    # the fixed-rate engine never precodes, and the CSIT sweep precodes
    # only the trials the screen kept
    zeroed = _zero_some_rows(monkeypatch)
    transmit, rows = sim.transmit, []

    def no_transmit(*args, **kw):
        raise AssertionError("the fixed-rate engine called the precoder")

    def nonzero_rows_only(h, *args, **kw):
        if not np.any(h != 0, axis=1).all():
            raise AssertionError("a zero-norm channel reached the precoder")
        rows.append(len(h))
        return transmit(h, *args, **kw)
    monkeypatch.setattr(sim, "transmit", no_transmit)
    kw = dict(m=2, snr_db=(20.0, 120.0), trials=2000, scheme=scheme)
    curve = run_fixed_rate_ser(SimConfig(**kw), _scheme_table(scheme))
    assert np.all(curve.errors >= zeroed)
    if scheme in sim.ENGINE_SCHEMES["csit"]:
        monkeypatch.setattr(sim, "transmit", nonzero_rows_only)
        # the perfect-CSIT point designs from the zero channels
        sweep = run_csit_sweep(SimConfig(**{**kw, "snr_db": (120.0,)}),
                               _scheme_table(scheme), (30.0,))
        assert sweep.errors[-1] >= zeroed
        assert sum(rows) > 0 or scheme == "egt-qam16"


@pytest.mark.parametrize("scheme", ["variable-apsk", "variable-qam"])
@pytest.mark.parametrize("target_ser", [1e-3, 0.6])
def test_zero_norm_channel_sends_nothing(scheme, target_ser, monkeypatch):
    kw = dict(m=2, snr_db=(0.0, 20.0, 200.0), trials=2000, scheme=scheme,
              target_ser=target_ser)
    plain = run_variable_rate(SimConfig(**kw), _rate_tables())
    zeroed = _zero_some_rows(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = run_variable_rate(SimConfig(**kw), _rate_tables())
    no_tx = np.rint(curve.no_tx_fraction * 2000).astype(int)
    assert np.all(no_tx >= zeroed)
    assert plain.no_tx_fraction[-1] == 0.0
    assert no_tx[-1] == zeroed
    assert np.all(curve.avg_bits <= plain.avg_bits)


# ---------------------------------------------------------------------------
# Skipping the (trial, point) pairs that cannot err


def _detect_every_pair(cfg, table):
    """Error counts of the fixed-rate engine's chunks with ML detection run
    on every (trial, SNR point) pair, each trial sent through the precoder
    and received, which must hit its target to 1e-9 R."""
    rings = _RingTables(table) if table is not None else None
    size = 16 if table is None else table.size
    qam16 = qam_family(16)
    psk16 = np.exp(2j * np.pi * np.arange(16) / 16)
    sigma = math.sqrt(sim.NOISE_POWER)
    errors = np.zeros(len(cfg.snr_db), dtype=np.int64)
    for chunk, lo in enumerate(range(0, cfg.trials, sim.CHUNK_SIZE)):
        t = min(sim.CHUNK_SIZE, cfg.trials - lo)
        rng = stream(cfg.seed, 1, chunk)
        h = np.concatenate([b for _, b in sim._channel_blocks(
            rng, cfg.m, t, sim.PATH_LOSS)])
        u = rng.integers(0, size, size=t)
        z = (rng.standard_normal(t) + 1j * rng.standard_normal(t)) / np.sqrt(2.0)
        big_r0, ratio = sim._annulus(h)
        if rings is not None:
            idx, _, _, rho2 = table.params_at(ratio)
            s, decide = rings.symbols(idx, rho2, u), rings.detector(idx, rho2)
        elif cfg.scheme == "adaptive-qam-psk":
            feas = ratio <= 1.0 / 3.0
            s = np.where(feas, qam16[u], psk16[u])
            def decide(wr, wi):
                return np.where(feas, _qam16_decide(wr, wi),
                                _psk_decide(wr, wi))
        else:
            s, decide = qam16[u], _qam16_decide
        if cfg.scheme == "fixed-qam16":
            mod = np.abs(s)
            s = s / mod * np.clip(mod, ratio, 1.0)
        d0 = (big_r0 * s if cfg.scheme == "egt-qam16" else
              sim._receive(h, sim.transmit(h, 1.0, big_r0 * s)))
        live = big_r0 > 0
        scale = np.where(live, big_r0, 1.0)
        a, b = d0 / scale, z / scale
        # the engine detects s + c b: the precoder must hit R s to 1e-9 R
        if cfg.scheme != "egt-qam16":
            assert np.all(np.abs(a - s)[live] <= 1e-9)
        sent = np.where(live, u, -1)
        for k, p in enumerate(cfg.powers()):
            c = sigma / math.sqrt(p)
            errors[k] += np.count_nonzero(
                decide(a.real + c * b.real, a.imag + c * b.imag) != sent)
    return errors


def _engine_cases(schemes):
    """Parametrize (scheme, n, m, seed): each scheme on N=16 at M = 1, 2, 4
    and 8 and seeds 0 and 7, and proposed-optimal on the N=8 and N=32
    tables at M = 2 and 4, seed 0."""
    cases = [(s, 16, m, seed) for s in schemes for m in (1, 2, 4, 8)
             for seed in (0, 7)]
    cases += [("proposed-optimal", n, m, 0) for n in (8, 32) for m in (2, 4)]
    ids = [f"{s}-{m}-{seed}" if n == 16 else f"{s}-n{n}-{m}-{seed}"
           for s, n, m, seed in cases]
    return pytest.mark.parametrize("scheme,n,m,seed", cases, ids=ids)


def _check_skipped_pairs(scheme, n, m, seed, chunk, monkeypatch, set_chunk,
                         lowest_snr=0):
    zeroed = _zero_some_rows(monkeypatch)
    set_chunk(chunk)
    snr_db = tuple(float(s) for s in range(lowest_snr, 39, 2))
    cfg = SimConfig(m=m, snr_db=snr_db, trials=20_000, scheme=scheme,
                    seed=seed)
    table = _scheme_table(scheme, n)
    curve = run_fixed_rate_ser(cfg, table)
    np.testing.assert_array_equal(curve.errors, _detect_every_pair(cfg, table))
    assert curve.errors[-1] >= zeroed


@_engine_cases([s for s, f in sim.SCHEMES.items() if f.command == "ser"])
def test_skipped_pairs_never_err(scheme, n, m, seed, monkeypatch, set_chunk):
    _check_skipped_pairs(scheme, n, m, seed, 8_000, monkeypatch, set_chunk)


@pytest.mark.parametrize("m,lowest_snr", [(2, 0), (8, 10)])
@pytest.mark.parametrize("scheme", ["proposed-optimal", "fixed-qam16"])
def test_skipped_pairs_never_err_across_blocks(scheme, m, lowest_snr,
                                               monkeypatch, set_chunk):
    # one 20,000-trial chunk spans blocks of 8192 + 8192 + 3616 rows; at
    # M=8 from 10 dB each block keeps only a few trials
    _check_skipped_pairs(scheme, 16, m, 0, 20_000, monkeypatch, set_chunk,
                         lowest_snr)


def _set_meds(pts):
    """MED of each row's point set, a few hundred rows at a time."""
    n, meds = pts.shape[1], []
    for part in np.array_split(pts, -(-len(pts) // 256)):
        dist = np.abs(part[:, :, None] - part[:, None, :])
        dist[:, np.arange(n), np.arange(n)] = np.inf
        meds.append(dist.min(axis=(1, 2)))
    return np.concatenate(meds)


@pytest.mark.parametrize("suboptimal", [False, True])
def test_safe_radius_inside_every_cell(suboptimal):
    # the skip rests on SAFE_RADIUS * d_min_at(ratio) < med / 2 for the
    # points the engine assembles, with at least half of the 0.001 med slack
    # that _ser_steps' error budget takes, on a dense sweep and at every
    # region edge, for each table size the engine tests run and for N=64
    for n in (8, 16, 32, 64):
        table = _table(n, suboptimal)
        lo = np.array([reg.lo for reg in table.regions])
        ratios = np.clip(np.concatenate([np.linspace(0.0, 1.0, 4001), lo,
                                         np.nextafter(lo, -1.0),
                                         np.nextafter(lo, 2.0)]), 0.0, 1.0)
        idx, _, _, rho2 = table.params_at(ratios)
        pts = _RingTables(table).symbols(
            np.repeat(idx, n), np.repeat(rho2, n),
            np.tile(np.arange(n), ratios.size)).reshape(-1, n)
        true_med = _set_meds(pts)
        d_min = table.d_min_at(ratios)
        assert np.all(0.5 * true_med - sim._SAFE_RADIUS * d_min
                      >= 5e-4 * true_med), n
        assert np.all(d_min <= true_med * (1.0 + 1e-6)), n


def test_safe_radius_inside_every_tableless_cell():
    # the same margin for the sets without a table: 16-QAM (fixed-qam16 and
    # egt-qam16), and the switch rule's 16-QAM up to its ratio limit and
    # 16-PSK beyond it (adaptive-qam-psk)
    qam_med, psk_med = _set_meds(np.stack([
        qam_family(16), np.exp(2j * np.pi * np.arange(16) / 16)]))
    assert sim._QAM16_MED == pytest.approx(qam_med, rel=1e-15)
    assert sim._PSK16_MED == pytest.approx(psk_med, rel=1e-15)
    edge = sim._QAM16_RATIO
    ratios = np.concatenate([np.linspace(0.0, 1.0, 4001),
                             [edge, np.nextafter(edge, 2.0)]])
    feas = ratios <= edge  # the switch rule
    d_cell = np.where(feas, sim._QAM16_MED, sim._PSK16_MED)
    true_med = np.where(feas, qam_med, psk_med)
    assert feas.any() and not feas.all()
    assert np.all(0.5 * true_med - sim._SAFE_RADIUS * d_cell
                  >= 5e-4 * true_med)


def _screened(scheme, table, ratios, u):
    """(s, lim, decide) of _ser_steps' screen and detector for `scheme` on
    the two-antenna channels [1, t] of the given annulus ratios, sending
    labels u, with every trial kept."""
    _, screen, detector = sim._ser_steps(sim.SCHEMES[scheme], table)
    t = (1.0 - ratios) / (1.0 + ratios)  # [1, t] has ratio (1 - t) / (1 + t)
    g = np.stack([np.ones_like(t), t], axis=1).astype(complex)
    kept, zero, _, s, lim, _, *state = screen(g, u, np.full(u.size, np.inf))
    assert kept.size == u.size and zero == 0
    return s, lim, detector(*state)


_EDGE_SETS = [("proposed-optimal", n) for n in (8, 16, 32)] + [
    ("proposed-suboptimal", 16), ("egt-qam16", 16), ("adaptive-qam-psk", 16),
    ("fixed-qam16", 16)]


@pytest.mark.parametrize("scheme,n", _EDGE_SETS,
                         ids=[f"{s}-n{n}" for s, n in _EDGE_SETS])
def test_screen_edge_is_detected_as_sent(scheme, n):
    # every skipped pair has |w - s| < lim: put w at s + lim e^(j phi), with
    # phi toward every other cell center of the set (so toward each nearest
    # neighbour) and on a 64-direction grid, at ratios inside every region
    # of a table, or across [0, 1] and at 16-QAM's ratio limit without one
    # (16-QAM, the switch rule's 16-PSK, and clipped 16-QAM); the engine's
    # detector must return the sent label
    table = _scheme_table(scheme, n)
    if table is None:
        edge = sim._QAM16_RATIO
        ratios = np.concatenate([np.linspace(0.0, 1.0, 101),
                                 [edge, np.nextafter(edge, 2.0)]])
    else:
        lo, hi = np.array([(reg.lo, reg.hi) for reg in table.regions]).T
        ratios = (lo[:, None] + np.array([1e-6, 0.5, 1.0 - 1e-6])
                  * (hi - lo)[:, None]).ravel()
    u = np.tile(np.arange(n), ratios.size)
    s, _, _ = _screened(scheme, table, np.repeat(ratios, n), u)
    # the cell centers: the sent points, or 16-QAM's before clipping
    center = qam_family(16)[u] if scheme == "fixed-qam16" else s
    s, center = s.reshape(-1, n), center.reshape(-1, n)
    grid = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    phi = np.concatenate([np.angle(center[:, None, :] - s[:, :, None]),
                          np.broadcast_to(grid, (ratios.size, n, 64))], axis=2)
    k = phi.shape[2]
    sent = np.repeat(u, k)
    s, lim, decide = _screened(scheme, table, np.repeat(ratios, n * k), sent)
    w = s + lim * np.exp(1j * phi.ravel())
    # lim <= 0 (a 16-QAM point clipped far from its center): nothing skipped
    inside = lim > 0
    assert inside.mean() > 0.5
    np.testing.assert_array_equal(decide(w.real, w.imag)[inside],
                                  sent[inside])


def test_detection_work_is_bounded(monkeypatch):
    # ser-apsk16-m2's configuration: about 11.8% of the (trial, point) pairs
    # can err at all, and only those reach the detector; about 39% of the
    # trials can err at the first point, and no trial reaches the precoder
    seen, chunks = [], []
    build = _RingTables.detector

    def no_transmit(*args, **kw):
        raise AssertionError("the fixed-rate engine called the precoder")

    def counting(self, idx, rho2):
        decide, calls = build(self, idx, rho2), []
        chunks.append(calls)  # one detector per chunk, one call per point

        def counted(wr, wi):
            seen.append(wr.size)
            calls.append(wr.size)
            return decide(wr, wi)
        return counted
    monkeypatch.setattr(_RingTables, "detector", counting)
    monkeypatch.setattr(sim, "transmit", no_transmit)
    cfg = SimConfig(m=2, snr_db=tuple(float(s) for s in range(10, 25)),
                    trials=200_000, scheme="proposed-optimal")
    run_fixed_rate_ser(cfg, _table(16))
    assert 0 < sum(seen) <= 0.2 * cfg.trials * len(cfg.snr_db)
    # the first point's call sees every trial the screen kept
    assert 0 < sum(calls[0] for calls in chunks) <= 0.5 * cfg.trials


# ---------------------------------------------------------------------------
# CSIT sweep: skipping the (trial, training point) pairs that cannot err


def _csit_every_pair(cfg, table, training_snr_db):
    """Error counts of the CSIT sweep's chunks with the precoder and ML
    detection run on every (trial, training point) pair, a whole chunk at a
    time."""
    rings = _RingTables(table) if table is not None else None
    size = 16 if table is None else table.size
    qam16 = qam_family(16)
    p = float(cfg.powers()[0])
    sp = math.sqrt(p)
    err_sd = [math.sqrt(sim.PATH_LOSS / (1.0 + 10.0 ** (s / 10.0)))
              for s in training_snr_db] + [0.0]
    errors = np.zeros(len(err_sd), dtype=np.int64)
    for chunk, lo in enumerate(range(0, cfg.trials, sim.CHUNK_SIZE)):
        t = min(sim.CHUNK_SIZE, cfg.trials - lo)
        rng = stream(cfg.seed, 3, chunk)
        h = np.concatenate([b for _, b in sim._channel_blocks(
            rng, cfg.m, t, sim.PATH_LOSS)])
        u = rng.integers(0, size, size=t)
        z = (rng.standard_normal(t) + 1j * rng.standard_normal(t)) / np.sqrt(2.0)
        dh = (rng.standard_normal((t, cfg.m))
              + 1j * rng.standard_normal((t, cfg.m))) / np.sqrt(2.0)
        noise = math.sqrt(sim.NOISE_POWER) * z
        for k, sd in enumerate(err_sd):
            h_hat = h - sd * dh
            big_r0, ratio = sim._annulus(h_hat)
            if rings is None:
                y = (np.sqrt(p / cfg.m)
                     * np.sum(h * np.exp(-1j * np.angle(h_hat)), axis=1)
                     * qam16[u] + noise)
                decide = _qam16_decide
            else:
                idx, _, _, rho2 = table.params_at(ratio)
                s = rings.symbols(idx, rho2, u)
                decide = rings.detector(idx, rho2)
                x = sim.transmit(h_hat, 1.0, big_r0 * s)
                y = sp * sim._receive(h, x) + noise
            live = big_r0 > 0
            w = y / (sp * np.where(live, big_r0, 1.0))
            errors[k] += np.count_nonzero((decide(w.real, w.imag) != u) | ~live)
    return errors


@_engine_cases(sorted(_PINNED_CSIT))
def test_csit_skipped_pairs_never_err(scheme, n, m, seed, monkeypatch,
                                      set_chunk):
    zeroed = _zero_some_rows(monkeypatch)
    set_chunk(4_000)
    training = tuple(float(s) for s in range(-10, 41, 5))
    table = _scheme_table(scheme, n)
    for snr in (5.0, 20.0, 40.0):
        cfg = SimConfig(m=m, snr_db=(snr,), trials=10_000, scheme=scheme,
                        seed=seed)
        curve = run_csit_sweep(cfg, table, training)
        np.testing.assert_array_equal(
            curve.errors, _csit_every_pair(cfg, table, training))
    assert curve.errors[-1] >= zeroed


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("scheme", sorted(_PINNED_CSIT))
def test_csit_sweep_rejects_non_finite_training_snr(scheme, bad):
    cfg = SimConfig(m=2, snr_db=(20.0,), trials=2000, scheme=scheme)
    with pytest.raises(ValueError, match="finite"):
        run_csit_sweep(cfg, _scheme_table(scheme), (0.0, bad))


def test_csit_work_is_bounded(monkeypatch):
    # csit-apsk16-m4's configuration: only the pairs the bound cannot clear
    # reach the precoder (about 40.6%), and only those still unclear reach
    # the detector (about 15.9%)
    precoded, detected = [], []
    transmit, build = sim.transmit, _RingTables.detector

    def counting_transmit(h, *args, **kw):
        precoded.append(len(h))
        return transmit(h, *args, **kw)

    def counting_detector(self, idx, rho2):
        decide = build(self, idx, rho2)

        def counted(wr, wi):
            detected.append(wr.size)
            return decide(wr, wi)
        return counted
    monkeypatch.setattr(sim, "transmit", counting_transmit)
    monkeypatch.setattr(_RingTables, "detector", counting_detector)
    cfg = SimConfig(m=4, snr_db=(20.0,), trials=200_000,
                    scheme="proposed-optimal")
    curve = run_csit_sweep(cfg, _table(16), tuple(range(0, 31, 2)))
    pairs = cfg.trials * curve.snr_db.size
    assert 0 < sum(precoded) <= 0.5 * pairs
    assert 0 < sum(detected) <= 0.25 * pairs
