import dataclasses
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from ceapsk.constellation import (_MAXLOG, _erfc, med, modulus_ratio,
                                  qam_family, ser_union_bound,
                                  union_bound_threshold)
from ceapsk.optimizer import RegionTable, build_region_table
from ceapsk.sim import NOISE_POWER, SIZES, _RingTables


def _rings(*rings):
    """Points radius * exp(j (2 pi k / count + offset)) of each ring
    (count, radius, offset), outer ring first."""
    return np.concatenate([radius * np.exp(1j * (2.0 * np.pi * np.arange(count)
                                                 / count + offset))
                           for count, radius, offset in rings])


def _design_points(n, ratio):
    """The N-point design's points at r/R = ratio as the engines assemble
    them (_RingTables, the one point-set builder in the package)."""
    table = build_region_table(n)
    idx, _, _, rho2 = table.params_at(np.array([ratio]))
    return _RingTables(table).symbols(np.repeat(idx, n), np.repeat(rho2, n),
                                      np.arange(n))


def test_apsk_points_qpsk():
    # the 4-point design is QPSK at every ratio: two rings of two at radius 1
    pts = _design_points(4, 0.7)
    np.testing.assert_allclose(sorted(pts, key=lambda p: np.angle(p)),
                               sorted([1, 1j, -1, -1j],
                                      key=lambda p: np.angle(p)), atol=1e-15)


def test_apsk_points_region1_16apsk():
    pts = _design_points(16, 0.4)
    assert pts.size == 16
    np.testing.assert_allclose(np.abs(pts[:11]), 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(np.abs(pts[11:]), 0.4603, rtol=0, atol=5e-5)


def test_apsk_points_single():
    # N=2: two single-point rings, the inner one half a turn round: BPSK
    pts = _design_points(2, 0.3)
    assert pts.tolist() == pytest.approx([1.0, -1.0], abs=1e-15)


def test_ring_validation():
    table = build_region_table(4)
    reg = table.regions[0]
    with pytest.raises(ValueError):
        _RingTables(None)
    for n2 in (0, 4):  # an empty ring: not a two-ring design
        bad = dataclasses.replace(reg, n2=n2)
        with pytest.raises(ValueError):
            _RingTables(RegionTable(size=4, regions=(bad,)))


def test_intra_ring_med():
    # the MED of one ring of N points is 2 sin(pi / N) times its radius
    psk4 = _rings((4, 1.0, 0.0))
    psk16 = _rings((16, 1.0, 0.0))
    assert med(psk4) == pytest.approx(math.sqrt(2.0))
    assert med(psk16) == pytest.approx(2 * math.sin(np.pi / 16))
    assert med(0.5 * psk16) == pytest.approx(0.3902 / 2, abs=5e-5)


def test_inter_ring_med_colinear():
    assert med(_rings((1, 1.0, 0.0), (1, 0.5, 0.0))) == pytest.approx(0.5)


def test_inter_ring_med_region1():
    # region-1 16-APSK: the inter-ring distance is the MED
    pts = _rings((11, 1.0, 0.0), (5, 0.4603, 0.0182 * np.pi))
    assert np.abs(pts[:11, None] - pts[None, 11:]).min() == pytest.approx(
        0.5411, abs=5e-5)
    assert med(pts) == pytest.approx(0.5411, abs=5e-5)


def test_med_qam_values():
    assert med(qam_family(16)) == pytest.approx(0.4714, abs=5e-5)
    assert med(qam_family(32)) == pytest.approx(0.3430, abs=5e-5)
    assert med(qam_family(64)) == pytest.approx(0.2020, abs=5e-5)


def test_med_errors_on_single_point():
    with pytest.raises(ValueError):
        med(np.array([1.0 + 0j]))


def test_analytic_vs_exhaustive_med():
    # Eq-style analytic MEDs must agree with O(N^2) brute force: the
    # intra-ring terms 2 rho sin(pi / N_l) (absent for a single point) and
    # the inter-ring term by the cosine rule on the worst angle difference
    rng = np.random.default_rng(1)
    for _ in range(30):
        n1 = int(rng.integers(2, 16))
        n2 = int(rng.integers(1, n1 + 1))
        rho2 = float(rng.uniform(0.1, 1.0))
        om = float(rng.uniform(0, 2 * np.pi))
        pts = _rings((n1, 1.0, 0.0), (n2, rho2, om))
        ang = (2 * np.pi * np.arange(n1)[:, None] / n1 - om
               - 2 * np.pi * np.arange(n2)[None, :] / n2)
        cmax = np.cos(ang).max()
        terms = [math.sqrt(max(1 + rho2 ** 2 - 2 * rho2 * cmax, 0.0)),
                 2 * math.sin(np.pi / n1)]
        if n2 > 1:
            terms.append(2 * rho2 * math.sin(np.pi / n2))
        assert min(terms) == pytest.approx(med(pts), abs=1e-12)


# A set fits the annulus of ratio q iff modulus_ratio(set) >= q


def test_is_feasible():
    q16 = qam_family(16)
    assert modulus_ratio(q16) >= 0.3
    assert not modulus_ratio(q16) >= 0.4
    psk = np.exp(2j * np.pi * np.arange(8) / 8)
    assert modulus_ratio(psk) >= 1.0 - 1e-12  # |exp(j phi)| rounds


def test_is_feasible_monotone():
    pts = qam_family(32)
    ratios = np.linspace(0, 1, 21)
    flags = [modulus_ratio(pts) >= q for q in ratios]
    # once infeasible, stays infeasible
    assert flags == sorted(flags, reverse=True)


def test_qam_family_values():
    assert modulus_ratio(qam_family(2)) == pytest.approx(1.0)
    assert modulus_ratio(qam_family(4)) == pytest.approx(1.0)
    assert modulus_ratio(qam_family(16)) == pytest.approx(1.0 / 3.0)
    assert modulus_ratio(qam_family(64)) == pytest.approx(1.0 / 7.0)
    assert med(qam_family(4)) == pytest.approx(math.sqrt(2.0))
    # 8-QAM: inner square +-1+-1j plus axis points at 1+sqrt(3)
    q8 = qam_family(8)
    assert q8.size == 8
    assert modulus_ratio(q8) == pytest.approx(math.sqrt(2) / (1 + math.sqrt(3)))
    assert med(q8) == pytest.approx(2.0 / (1 + math.sqrt(3)))
    with pytest.raises(ValueError):
        qam_family(12)


def test_union_bound_values():
    # zero argument: (N-1)/2 clamped to 1 for N >= 3
    assert ser_union_bound(16, 0.0, 1.0, 1.0) == 1.0
    assert ser_union_bound(2, 0.0, 1.0, 1.0) == pytest.approx(0.5)
    # N=2 with R*dmin/(sigma sqrt2) = 3 is the standard Q(3) tail
    sigma2 = 1.0
    d = 3.0 * math.sqrt(2.0 * sigma2)
    assert ser_union_bound(2, d, 1.0, sigma2) == pytest.approx(1.3499e-3,
                                                              rel=1e-3)
    # vanishing noise: bound -> 0
    assert ser_union_bound(16, 0.5, 1.0, 1e-30) == 0.0


def test_union_bound_threshold_matches_scipy_formula():
    # every tail that the rate thresholds make for N up to 256 over a log
    # grid of target SERs, through the whole threshold formula; the standard
    # library's normal quantile stays within a few ulps of scipy's erfcinv
    scale = math.sqrt(2.0 * NOISE_POWER) * math.sqrt(2.0)
    for pe in np.logspace(-9.0, math.log10(0.32), 60):
        for n in range(2, 257):
            tail = pe / (n - 1)
            want = scale * float(scipy.special.erfcinv(2.0 * tail))
            got = union_bound_threshold(n, float(pe), NOISE_POWER)
            assert abs(got - want) <= 2e-15 * want, (n, pe)


@pytest.mark.parametrize("n", [1, 0, -3])
def test_union_bound_and_its_threshold_need_two_points(n):
    with pytest.raises(ValueError, match="need N >= 2"):
        union_bound_threshold(n, 1e-3, NOISE_POWER)
    with pytest.raises(ValueError, match="need N >= 2"):
        ser_union_bound(n, 0.5, 1.0, NOISE_POWER)


def test_union_bound_threshold_of_an_underflowed_tail():
    # 5e-324 / (N - 1) rounds to 0.0 for every N >= 3: no R d_min meets it
    for n in SIZES[1:]:
        assert union_bound_threshold(n, 5e-324, NOISE_POWER) == math.inf
    thr = union_bound_threshold(2, 5e-324, NOISE_POWER)
    assert 0.0 < thr < math.inf


# _erfc is a port of Cephes ndtr.c erfc, which is what scipy.special.erfc
# computes.  numpy's exp may differ from the C library's by an ulp, so the
# two agree to a few ulps rather than bit for bit: relative to the value, or
# to the smallest normal float for subnormal results, whose precision is
# lower.  Both give zero at the same arguments.


def _assert_erfc_close(xs):
    xs = np.asarray(xs, dtype=float)
    got, want = _erfc(xs), scipy.special.erfc(xs)
    np.testing.assert_array_equal(got == 0.0, want == 0.0)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    scale = np.maximum(np.abs(want), np.finfo(float).tiny)
    err = np.abs(got - want)[ok] / scale[ok]
    assert err.max(initial=0.0) <= 1e-14, xs[ok][err.argmax()]


def _ulps_around(x, k=8):
    """x and the k floats on each side of it."""
    out = [x]
    lo = hi = x
    for _ in range(k):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


def test_erfc_matches_scipy_on_every_branch():
    rng = np.random.default_rng(0)
    # |x| < 1: 1 - erf(x); 1 <= |x| < 8 and |x| >= 8: the two exp(-x^2)
    # rationals; beyond sqrt(MAXLOG) = 26.64 Cephes gives 0 (2 for x < 0)
    for lo, hi in [(0.0, 1.0), (1.0, 8.0), (8.0, 30.0)]:
        xs = np.concatenate([np.linspace(lo, hi, 20_001),
                             rng.uniform(lo, hi, 50_000)])
        _assert_erfc_close(xs)
        _assert_erfc_close(-xs)
    _assert_erfc_close(10.0 ** rng.uniform(-300.0, 300.0, 10_000))
    _assert_erfc_close(-(10.0 ** rng.uniform(-300.0, 300.0, 10_000)))


@pytest.mark.parametrize("edge", [0.0, 1.0, 8.0, math.sqrt(_MAXLOG)])
def test_erfc_matches_scipy_at_branch_edges(edge):
    xs = np.array(_ulps_around(edge))
    _assert_erfc_close(xs)
    _assert_erfc_close(-xs)


def test_erfc_underflow_edge():
    # results turn subnormal near 26.55 and stop at sqrt(MAXLOG) = 26.64
    xs = np.linspace(26.5, 26.7, 200_001)
    _assert_erfc_close(xs)
    _assert_erfc_close(-xs)
    want = scipy.special.erfc(xs)
    assert 0.0 < want[want > 0].min() < np.finfo(float).tiny
    assert _erfc(math.sqrt(_MAXLOG) * (1 + 1e-15)) == 0.0
    assert _erfc(-30.0) == 2.0


def test_erfc_into_buffers_is_bit_equal():
    # the union bound's in-place path: the result lands in `out`, equal bit
    # for bit to a fresh call, on every branch and for either sign
    rng = np.random.default_rng(1)
    xs = rng.uniform(-30.0, 30.0, (3, 4000))
    out, work = np.full(xs.size, np.nan), np.full(xs.size, np.nan)
    got = _erfc(xs, out, work)
    assert got.shape == xs.shape and np.shares_memory(got, out)
    np.testing.assert_array_equal(got, _erfc(xs))


def test_erfc_special_values():
    for x, want in [(0.0, 1.0), (-0.0, 1.0), (math.inf, 0.0),
                    (-math.inf, 2.0)]:
        got = _erfc(x)
        assert type(got) is float and got == want
    assert math.isnan(_erfc(math.nan))
    # shapes pass through
    assert _erfc(np.zeros((2, 3))).shape == (2, 3)
    assert _erfc(np.array([])).shape == (0,)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(x=st.floats(allow_nan=True, allow_infinity=True))
def test_erfc_matches_scipy_property(x):
    _assert_erfc_close([x])
