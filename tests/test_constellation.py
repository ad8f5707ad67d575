import math

import numpy as np
import pytest

from ceapsk.constellation import (ApskConstellation, Ring, apsk_points, med,
                                  modulus_ratio, qam_family, qfunc,
                                  ser_union_bound)


def test_apsk_points_qpsk():
    c = ApskConstellation((Ring(4, 1.0, 0.0),))
    pts = apsk_points(c)
    np.testing.assert_allclose(sorted(pts, key=lambda p: np.angle(p)),
                               sorted([1, 1j, -1, -1j],
                                      key=lambda p: np.angle(p)), atol=1e-15)


def test_apsk_points_region1_16apsk():
    c = ApskConstellation((Ring(11, 1.0, 0.0),
                           Ring(5, 0.4603, 0.0182 * np.pi)))
    pts = apsk_points(c)
    assert pts.size == 16
    assert np.count_nonzero(np.isclose(np.abs(pts), 0.4603)) == 5


def test_apsk_points_single():
    c = ApskConstellation((Ring(1, 1.0, 0.0), Ring(1, 0.3, 0.7)))
    pts = apsk_points(c)
    assert pts[1] == pytest.approx(0.3 * np.exp(0.7j))


def test_ring_validation():
    with pytest.raises(ValueError):
        Ring(0, 1.0, 0.0)
    with pytest.raises(ValueError):
        Ring(4, 1.5, 0.0)
    with pytest.raises(ValueError):
        ApskConstellation((Ring(4, 0.5, 0.0),))  # ring 1 must have radius 1
    with pytest.raises(ValueError):
        # increasing radii
        ApskConstellation((Ring(2, 1.0, 0.0), Ring(2, 0.5, 0.0),
                           Ring(2, 0.8, 0.0)))


def test_intra_ring_med():
    # the MED of one ring of N points is 2 sin(pi / N) times its radius
    psk4 = apsk_points(ApskConstellation((Ring(4, 1.0, 0.0),)))
    psk16 = apsk_points(ApskConstellation((Ring(16, 1.0, 0.0),)))
    assert med(psk4).med == pytest.approx(math.sqrt(2.0))
    assert med(psk16).med == pytest.approx(2 * math.sin(np.pi / 16))
    assert med(0.5 * psk16).med == pytest.approx(0.3902 / 2, abs=5e-5)


def test_inter_ring_med_colinear():
    c = ApskConstellation((Ring(1, 1.0, 0.0), Ring(1, 0.5, 0.0)))
    assert med(apsk_points(c)).med == pytest.approx(0.5)


def test_inter_ring_med_region1():
    # region-1 16-APSK: the inter-ring distance is the MED
    c = ApskConstellation((Ring(11, 1.0, 0.0),
                           Ring(5, 0.4603, 0.0182 * np.pi)))
    pts = apsk_points(c)
    assert np.abs(pts[:11, None] - pts[None, 11:]).min() == pytest.approx(
        0.5411, abs=5e-5)
    assert med(pts).med == pytest.approx(0.5411, abs=5e-5)


def test_med_qam_values():
    assert med(qam_family(16)).med == pytest.approx(0.4714, abs=5e-5)
    assert med(qam_family(32)).med == pytest.approx(0.3430, abs=5e-5)
    assert med(qam_family(64)).med == pytest.approx(0.2020, abs=5e-5)


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
        c = ApskConstellation((Ring(n1, 1.0, 0.0), Ring(n2, rho2, om)))
        pts = apsk_points(c)
        ang = (2 * np.pi * np.arange(n1)[:, None] / n1 - om
               - 2 * np.pi * np.arange(n2)[None, :] / n2)
        cmax = np.cos(ang).max()
        terms = [math.sqrt(max(1 + rho2 ** 2 - 2 * rho2 * cmax, 0.0)),
                 2 * math.sin(np.pi / n1)]
        if n2 > 1:
            terms.append(2 * rho2 * math.sin(np.pi / n2))
        assert min(terms) == pytest.approx(med(pts).med, abs=1e-12)


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
    assert med(qam_family(4)).med == pytest.approx(math.sqrt(2.0))
    # 8-QAM: inner square +-1+-1j plus axis points at 1+sqrt(3)
    q8 = qam_family(8)
    assert q8.size == 8
    assert modulus_ratio(q8) == pytest.approx(math.sqrt(2) / (1 + math.sqrt(3)))
    assert med(q8).med == pytest.approx(2.0 / (1 + math.sqrt(3)))
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


def test_qfunc():
    assert qfunc(0.0) == pytest.approx(0.5)
    assert qfunc(3.0) == pytest.approx(1.3499e-3, rel=1e-3)


def test_json_roundtrip():
    c = ApskConstellation((Ring(11, 1.0, 0.0), Ring(5, 0.4603, 0.0571)))
    c2 = ApskConstellation.from_json(c.to_json())
    assert c2 == c

