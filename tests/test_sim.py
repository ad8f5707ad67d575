import functools
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ceapsk
import ceapsk.sim as sim
from ceapsk.constellation import (qam_family, ser_union_bound,
                                  union_bound_threshold)
from ceapsk.optimizer import build_region_table, build_suboptimal_table
from ceapsk.sim import (RateCurve, SerCurve, SimConfig, _least_feasible,
                        _psk_decide, _qam16_decide, _qam_limits, _rate_counts,
                        _RingTables, run_csit_sweep, run_fixed_rate_ser,
                        run_variable_rate, snr_at_bits, snr_at_ser)


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
        # a fake precoder whose receive point is 2 R: every h_i x_i real,
        # positive and twice the constant-envelope amplitude
        sim.transmit = lambda h, p, d, **kw: (
            2.0 * (p / h.shape[1]) ** 0.5 * h.conj() / abs(h))
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


@pytest.mark.parametrize("k_pts", [1, 2, 31])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       target_ser=st.sampled_from([1e-3, 0.2, 0.6]),
       n_sizes=st.integers(1, 6))
def test_rate_selection_matches_brute_force(k_pts, seed, target_ser, n_sizes):
    rng = np.random.default_rng(seed)
    snr = np.sort(rng.choice(np.arange(-10.0, 41.0, 0.5), k_pts, replace=False))
    if k_pts > 1:  # two grid points a hair apart, so sqrt(p) may repeat
        snr[1] = np.nextafter(snr[0], np.inf)
    cfg = SimConfig(m=2, snr_db=tuple(snr), trials=1000,
                    scheme="variable-qam", target_ser=target_ser)
    sqrt_p = np.sqrt(cfg.powers())
    sizes = np.sort(rng.choice([2, 4, 8, 16, 32, 64], n_sizes, replace=False))
    bits = np.log2(sizes)
    thresholds = np.array([union_bound_threshold(n, target_ser,
                                                 cfg.noise_power)
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
    no_tx, bit_sum = _rate_counts(x, x.shape[1], least,
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


def test_union_bound_threshold_round_trip():
    sigma2 = sim.DEFAULT_NOISE_POWER
    for n in (2, 3, 4, 8, 16, 32, 64, 256):
        thr = union_bound_threshold(n, 1e-3, sigma2)
        above = ser_union_bound(n, 1.0, thr * (1 + 1e-9), sigma2)
        below = ser_union_bound(n, 1.0, thr * (1 - 1e-9), sigma2)
        assert above < 1e-3 < below
    assert union_bound_threshold(2, 0.5, sigma2) == 0.0
    assert union_bound_threshold(3, 0.5, sigma2) > 0.0


def test_select_rate_shares_the_array_rule():
    # at R d_min exactly on the threshold the size is chosen, one ulp below
    # it is not; a zero distance never is, even with a zero threshold
    sqrt_p, step = np.array([1.0]), np.array([1.0, 3.0])  # sizes 2 and 16
    thr = union_bound_threshold(16, 1e-3, 1.0)
    least = _least_feasible(sqrt_p, np.array([np.inf, thr]))
    x = np.array([[0.0, 0.0], [thr, np.nextafter(thr, 0.0)]])
    assert [c.tolist() for c in _rate_counts(x, 2, least, step)] == [[1], [4.0]]
    least = _least_feasible(sqrt_p, np.array([0.0, np.inf]))
    x = np.array([[0.0], [0.0]])
    assert [c.tolist() for c in _rate_counts(x, 1, least, step)] == [[1], [0.0]]


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


def _rate_tables():
    return {n: _table(n) for n in (2, 4, 8, 16, 32, 64)}


@pytest.mark.parametrize("scheme,m", sorted(_PINNED_RATE))
def test_variable_rate_pinned(scheme, m):
    kw = dict(m=m, snr_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
              trials=20_000, scheme=scheme, seed=5, chunk_size=8_000)
    curve = run_variable_rate(SimConfig(**kw), _rate_tables())
    assert (curve.avg_bits.tolist(), curve.no_tx_fraction.tolist()) == \
        _PINNED_RATE[scheme, m]
    two = run_variable_rate(SimConfig(threads=2, **kw), _rate_tables())
    np.testing.assert_array_equal(two.avg_bits, curve.avg_bits)
    np.testing.assert_array_equal(two.no_tx_fraction, curve.no_tx_fraction)


# ---------------------------------------------------------------------------
# Zero-norm channels


def _zero_some_rows(monkeypatch, every=97):
    draw = sim._draw_channel

    def patched(rng, m, t, path_loss):
        h = draw(rng, m, t, path_loss)
        h[::every] = 0.0
        return h
    monkeypatch.setattr(sim, "_draw_channel", patched)
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
