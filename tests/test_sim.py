import functools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ceapsk
from ceapsk.constellation import qam_family
from ceapsk.optimizer import build_region_table, build_suboptimal_table
from ceapsk.sim import (RateCurve, SerCurve, SimConfig, _psk_decide,
                        _qam16_decide, _RingTables, apsk_dmin_lookup,
                        qam_dmin_lookup, run_csit_sweep, run_fixed_rate_ser,
                        run_variable_rate, select_rate, snr_at_bits,
                        snr_at_ser)


@pytest.fixture(scope="module")
def table16():
    return build_region_table(16, 1e-4)


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


@pytest.mark.parametrize("field", ["m", "threads", "chunk_size"])
def test_config_rejects_counts_below_one(field):
    kw = dict(m=2, snr_db=(10.0,), trials=10 ** 4, scheme="proposed-optimal")
    with pytest.raises(ValueError, match=field):
        SimConfig(**{**kw, field: 0})


@pytest.mark.parametrize("scheme", ["fixed-qam16", "egt-qam16",
                                    "adaptive-qam-psk"])
@pytest.mark.parametrize("n", [8, 32])
def test_config_rejects_qam_schemes_off_16(scheme, n):
    with pytest.raises(ValueError, match="16"):
        SimConfig(m=2, snr_db=(10.0,), trials=10 ** 4, scheme=scheme, n=n)


def test_engines_reject_table_of_other_size():
    cfg = SimConfig(m=2, snr_db=(20.0,), trials=2000,
                    scheme="proposed-optimal", n=16)
    table8 = build_region_table(8, 1e-4)
    with pytest.raises(ValueError, match="N=16"):
        run_fixed_rate_ser(cfg, table8)
    with pytest.raises(ValueError, match="N=16"):
        run_csit_sweep(cfg, table8, (10.0,))


def test_powers():
    cfg = SimConfig(m=2, snr_db=(0.0,), trials=10 ** 4,
                    scheme="proposed-optimal", path_loss=1e-9,
                    noise_power=1e-12)
    assert cfg.powers()[0] == pytest.approx(1e-3)


def test_select_rate_limits(table16):
    sizes = (2, 4, 8, 16, 32, 64)
    tables = {n: build_region_table(n, 1e-4) for n in sizes}
    lookup = apsk_dmin_lookup(tables)
    assert select_rate(0.0, 1e12, 1.0, 1e-3, sizes, lookup) == 64
    assert select_rate(0.0, 1e-12, 1.0, 1e-3, sizes, lookup) == 1


def test_select_rate_qam_feasibility():
    sizes = (2, 4, 8, 16, 32, 64)
    lookup = qam_dmin_lookup()
    # at ratio 0.4 only N in {2,4,8} are feasible for the QAM family
    assert lookup(16, 0.4) == 0.0
    assert lookup(32, 0.4) == 0.0
    assert lookup(64, 0.4) == 0.0
    assert lookup(8, 0.4) > 0.0
    outer = 1e6
    assert select_rate(0.4 * outer, outer, 1.0, 1e-3, sizes, lookup) == 8


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


def test_thread_count_invariance(table16):
    kw = dict(m=2, snr_db=(20.0, 24.0), trials=200_000,
              scheme="proposed-optimal", chunk_size=50_000)
    c1 = run_fixed_rate_ser(SimConfig(threads=1, **kw), table16)
    c4 = run_fixed_rate_ser(SimConfig(threads=4, **kw), table16)
    np.testing.assert_array_equal(c1.errors, c4.errors)
    np.testing.assert_array_equal(c1.trials, c4.trials)


def test_seed_changes_results(table16):
    kw = dict(m=2, snr_db=(22.0,), trials=50_000, scheme="proposed-optimal")
    a = run_fixed_rate_ser(SimConfig(seed=0, **kw), table16)
    b = run_fixed_rate_ser(SimConfig(seed=1, **kw), table16)
    assert a.errors[0] != b.errors[0]


def test_union_bound_present_for_proposed(table16):
    cfg = SimConfig(m=2, snr_db=(20.0,), trials=10 ** 4,
                    scheme="proposed-optimal")
    curve = run_fixed_rate_ser(cfg, table16)
    assert curve.union_bound is not None
    cfg = SimConfig(m=2, snr_db=(20.0,), trials=10 ** 4,
                    scheme="fixed-qam16")
    assert run_fixed_rate_ser(cfg, None).union_bound is None


def test_debug_feasibility_checks(table16):
    cfg = SimConfig(m=2, snr_db=(20.0,), trials=5000,
                    scheme="proposed-optimal", debug_checks=True)
    run_fixed_rate_ser(cfg, table16)  # the checks inside must not fire
    # under python -O the check still fires on a precoder output of 2 R
    script = textwrap.dedent("""
        import sys
        import ceapsk.sim as sim
        from ceapsk.optimizer import build_region_table
        if sys.flags.optimize != 1:
            sys.exit(3)
        sim.reconstruct = lambda h, amp, theta: (
            2.0 * sim.annulus_arrays(h, amp)[1] + 0j)
        cfg = sim.SimConfig(m=2, snr_db=(20.0,), trials=2000,
                            scheme="proposed-optimal", debug_checks=True)
        try:
            sim.run_fixed_rate_ser(cfg, build_region_table(16))
        except RuntimeError:
            sys.exit(0)
        sys.exit(1)
    """)
    src = str(Path(ceapsk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
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
    table = build_region_table(n, 1e-4)
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
    cfg = SimConfig(m=2, snr_db=(0.0,), trials=1000, scheme="proposed-optimal",
                    n=n)
    u = rng.integers(0, n, size=w.size)
    t_idx, t_rho2 = np.full(w.size, region), np.full(w.size, rho2)
    s, decide = _RingTables(cfg, table).for_trials(t_idx, t_rho2, u)
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
    _assert_ml(_psk_decide(w.real, w.imag, 16), w, pts)


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


def _scheme_table(scheme):
    if scheme == "proposed-optimal":
        return _table(16)
    return _table(16, True) if scheme == "proposed-suboptimal" else None


@pytest.mark.parametrize("scheme,m", sorted(_PINNED_FIXED))
def test_fixed_rate_error_counts_pinned(scheme, m):
    cfg = SimConfig(m=m, snr_db=(12.0, 18.0, 24.0), trials=20_000,
                    scheme=scheme, seed=5, chunk_size=8_000)
    curve = run_fixed_rate_ser(cfg, _scheme_table(scheme))
    assert curve.errors.tolist() == _PINNED_FIXED[scheme, m]


@pytest.mark.parametrize("scheme", sorted(_PINNED_CSIT))
def test_csit_sweep_error_counts_pinned(scheme):
    cfg = SimConfig(m=4, snr_db=(20.0,), trials=20_000, scheme=scheme,
                    seed=5, chunk_size=8_000)
    curve = run_csit_sweep(cfg, _scheme_table(scheme), (0.0, 10.0, 20.0))
    assert curve.errors.tolist() == _PINNED_CSIT[scheme]
