import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceapsk.constellation import apsk_points, med, modulus_ratio
from ceapsk.optimizer import (_solve_n2, build_region_table,
                              build_suboptimal_table, region_probabilities,
                              solve_p2, solve_p21)


def test_solve_p21_examples():
    sol = solve_p21(16, 5)
    assert sol.omega2_star / np.pi == pytest.approx(0.0182, abs=1e-4)

    sol = solve_p21(16, 8)
    assert sol.omega2_star / np.pi == pytest.approx(0.1250, abs=1e-4)
    assert sol.c12_star == pytest.approx(math.cos(np.pi / 8))

    sol = solve_p21(2, 1)
    assert sol.omega2_star == pytest.approx(np.pi)
    assert sol.c12_star == pytest.approx(-1.0)


def test_solve_p21_range_error():
    with pytest.raises(ValueError):
        solve_p21(16, 0)
    with pytest.raises(ValueError):
        solve_p21(16, 16)


def test_solve_p21_breakpoints_contain_endpoints():
    for n2 in range(1, 9):
        sol = solve_p21(16, n2)
        n1 = 16 - n2
        assert sol.breakpoints[0] == pytest.approx(0.0)
        assert sol.breakpoints[-1] == pytest.approx(-2 * np.pi / n1)
        assert len(sol.breakpoints) >= 2


def _b(count):
    return 1.0 - math.cos(2.0 * np.pi / count)


def _n2_design(n, n2, ratio):
    """(d_min, rho2, tracking) of the radius subproblem at one ratio."""
    d, rho2, track = _solve_n2(n, n2, np.array([ratio]), solve_p21(n, n2))
    return float(d[0]), float(rho2[0]), bool(track[0])


def test_find_rho2_cases():
    # N=16, N2=6, ratio 0.25 lands in case i: rho2 = rho_bar, where the
    # inner-ring MED sqrt(2 B2) rho2 meets the inter-ring distance
    c12 = solve_p21(16, 6).c12_star
    d, rho2, track = _n2_design(16, 6, 0.25)
    assert 0.25 < rho2 < c12 and not track
    assert d == pytest.approx(math.sqrt(2 * _b(6)) * rho2)
    assert d == pytest.approx(math.sqrt(1 + rho2 ** 2 - 2 * rho2 * c12))

    # N=16, N2=4: ratio 0.55 -> case iii with the boundary-tracking formula
    c12 = solve_p21(16, 4).c12_star
    d, rho2, track = _n2_design(16, 4, 0.55)
    assert (rho2, track) == (0.55, True)
    assert d == pytest.approx(math.sqrt(0.55 ** 2 + 1 - 2 * 0.55 * c12))

    # same geometry at ratio 0.45 -> case iv with d = sqrt(2 B1)
    d, rho2, track = _n2_design(16, 4, 0.45)
    assert 0.45 < rho2 < c12 and not track
    assert d == pytest.approx(math.sqrt(2 * _b(12)))


def test_find_rho2_precondition():
    # region I needs C* > r/R; at or past it the inner ring sits at rho2 = 1
    c12 = solve_p21(16, 4).c12_star
    for ratio in (c12, 0.99):
        d, rho2, track = _n2_design(16, 4, ratio)
        assert (rho2, track) == (1.0, False)
        assert d == pytest.approx(min(math.sqrt(2 * _b(12)),
                                      math.sqrt(2 * _b(4)),
                                      math.sqrt(2 - 2 * c12)))


def test_solve_p2_examples():
    res = solve_p2(16, 0.4)
    assert res.n2 == 5
    assert res.rho2 == pytest.approx(0.4603, abs=1e-4)
    assert res.omega2 / np.pi == pytest.approx(0.0182, abs=1e-4)
    assert res.d_min == pytest.approx(0.5411, abs=1e-4)

    res = solve_p2(16, 0.5)
    assert res.n2 == 4
    assert res.rho2 == pytest.approx(0.5176, abs=1e-4)
    assert res.omega2 / np.pi == pytest.approx(0.0833, abs=1e-4)
    assert res.d_min == pytest.approx(0.5176, abs=1e-4)

    res = solve_p2(16, 0.9)
    assert res.n2 == 8
    assert res.rho2 == pytest.approx(1.0)
    assert res.d_min == pytest.approx(0.3902, abs=1e-4)

    for q in (0.0, 0.3, 0.7, 1.0):
        res = solve_p2(4, q)
        assert res.d_min == pytest.approx(math.sqrt(2.0))


def test_solve_p2_validation():
    with pytest.raises(ValueError):
        solve_p2(16, 1.5)
    with pytest.raises(ValueError):
        solve_p2(1, 0.5)
    with pytest.raises(ValueError):
        solve_p2(7, 0.5)
    with pytest.warns(UserWarning):
        solve_p2(6, 0.5)


def test_solve_p2_output_feasible():
    for q in np.linspace(0, 1, 21):
        res = solve_p2(16, float(q))
        assert modulus_ratio(apsk_points(res.constellation)) >= q - 2e-12


def test_solve_p2_dmin_matches_point_set():
    for q in np.linspace(0, 1, 21):
        res = solve_p2(16, float(q))
        assert med(apsk_points(res.constellation)).med == pytest.approx(
            res.d_min, abs=1e-9)


def test_dmin_monotone_in_ratio():
    for n in (8, 16, 32):
        prev = np.inf
        for q in np.linspace(0, 1, 101):
            d = solve_p2(n, float(q)).d_min
            assert d <= prev + 1e-12
            prev = d


def test_region_table_n8():
    table = build_region_table(8, 1e-4)
    assert len(table.regions) == 3
    bounds = [reg.hi for reg in table.regions[:-1]]
    np.testing.assert_allclose(bounds, [0.1495, 0.2705], atol=1e-4)
    assert table.regions[0].n2 == 1
    assert table.regions[0].rho2 == pytest.approx(0.1495, abs=1e-4)
    assert table.regions[0].d_min == pytest.approx(0.8678, abs=1e-4)
    assert table.regions[2].n2 == 4
    assert table.regions[2].d_min == pytest.approx(0.7654, abs=1e-4)


def test_region_table_n2_single_region():
    table = build_region_table(2, 1e-4)
    assert len(table.regions) == 1
    assert table.regions[0].d_min == pytest.approx(2.0)


def test_region_table_consistency():
    table = build_region_table(16, 1e-4)
    ratios = np.linspace(0, 1, 201)
    d_table = table.d_min_at(ratios)
    d_solve = np.array([solve_p2(16, float(q)).d_min for q in ratios])
    np.testing.assert_allclose(d_table, d_solve, atol=1e-9)


def test_region_table_partition():
    table = build_region_table(16, 1e-4)
    assert table.regions[0].lo == 0.0
    assert table.regions[-1].hi == 1.0
    for a, b in zip(table.regions, table.regions[1:]):
        assert a.hi == pytest.approx(b.lo)


def test_region_table_json_roundtrip():
    table = build_region_table(8, 1e-4)
    table2 = type(table).from_json(table.to_json())
    assert table2 == table


def test_region_table_csv(tmp_path):
    table = build_region_table(8, 1e-4)
    path = tmp_path / "t.csv"
    table.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("region,ratio_lo,ratio_hi,rho2,N2,omega2_over_pi")
    assert len(lines) == 4


def test_grid_step_validation():
    with pytest.raises(ValueError):
        build_region_table(16, 1e-3)


def test_suboptimal_table_n16():
    table = build_region_table(16, 1e-4)
    sub = build_suboptimal_table(table)
    assert len(sub.regions) == 2
    assert sub.regions[0] == table.regions[0]
    assert sub.regions[1].hi == 1.0
    assert sub.regions[1].n2 == 8
    assert sub.regions[1].rho2 == pytest.approx(1.0)
    assert sub.regions[1].d_min == pytest.approx(0.3902, abs=1e-4)


def test_suboptimal_table_n8_second_region_is_8psk():
    sub = build_suboptimal_table(build_region_table(8, 1e-4))
    reg = sub.regions[1]
    # two rings of 4 at rho2=1 with quarter-turn offset = 8-PSK
    from ceapsk.constellation import ApskConstellation, Ring
    pts = apsk_points(ApskConstellation((Ring(4, 1.0, 0.0),
                                         Ring(4, reg.rho2, reg.omega2))))
    psk8 = np.exp(2j * np.pi * np.arange(8) / 8)
    assert np.allclose(np.sort(np.angle(pts) % (2 * np.pi)),
                       np.sort(np.angle(psk8) % (2 * np.pi)), atol=1e-9)
    assert np.allclose(np.abs(pts), 1.0)


def test_suboptimal_single_region_passthrough():
    table = build_region_table(4, 1e-4)
    assert build_suboptimal_table(table) == table


def test_region_probabilities():
    table = build_region_table(8, 1e-4)
    with pytest.raises(ValueError):
        region_probabilities(table, 2, 10 ** 4, 0)
    probs = region_probabilities(table, 4, 2 * 10 ** 5, 0)
    assert probs.sum() == pytest.approx(1.0)
    assert probs[0] == pytest.approx(0.9766, abs=0.005)


@functools.lru_cache(maxsize=None)
def _table(n, suboptimal=False):
    table = build_region_table(n, 1e-4)
    return build_suboptimal_table(table) if suboptimal else table


_TABLES = [(n, False) for n in (2, 4, 8, 16, 32, 64)] + [(16, True)]

# SHA-256 of to_json() for the tables above, recorded before the scalar
# radius solver was folded into the grid solver
_TABLE_SHA256 = {
    (2, False): "a10e8c74a2d02a536bc0ab50952ce418317bdcfbdc824ab97df06026af44f3f2",
    (4, False): "fe93a3651b3bd639c03a49fe965852683bb517ff4514f591b9e1b0ae0255acda",
    (8, False): "7b53cf023ef7a3b2f6a5070057d5f7d3213be6417758cdd66fc27b5b4a28a431",
    (16, False): "2fef68b0eba96d641e5bbb2fc4186a5d415564f9cf672019d2d75df24a2754e6",
    (32, False): "7c58b27fd81a0d8a057a05817ba728bd8937fa3c9d6329937501ce43824ee0d7",
    (64, False): "9bcc3ce6f1c0f292759afe89ebebb3b2a5183e005631c95ecacfa36a6bc18e28",
    (16, True): "5ed3d1e2255af0a8b6c4b212b9502d9bf2f53b6400a99fbbc0de194becdc238c",
}


@pytest.mark.parametrize("n,suboptimal", _TABLES)
def test_region_table_bytes_pinned(n, suboptimal):
    text = _table(n, suboptimal).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == _TABLE_SHA256[n, suboptimal]


@pytest.mark.parametrize("n,suboptimal", _TABLES)
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_region_lookup_at_edges(n, suboptimal, data):
    table = _table(n, suboptimal)
    regs = table.regions
    edges = [0.0, 1.0] + [x for reg in regs for x in (
        reg.lo, np.nextafter(reg.lo, -1.0), np.nextafter(reg.lo, 2.0))]
    ratio = data.draw(st.sampled_from(edges))
    # the last region with lo <= ratio; the first for a ratio below 0
    want = max([j for j, reg in enumerate(regs) if reg.lo <= ratio], default=0)
    reg = regs[want]
    idx, n2, omega2, rho2 = table.params_at(np.array([ratio]))
    assert idx.tolist() == table.index(np.array([ratio])).tolist() == [want]
    assert (n2[0], omega2[0]) == (reg.n2, reg.omega2)
    assert rho2[0] == (ratio if reg.rho2_rule == "track_ratio" else reg.rho2)
    d = table.d_min_at(np.array([ratio]))[0]
    if reg.d_min_rule == "constant":
        assert d == reg.d_min
    else:
        assert d == pytest.approx(
            math.sqrt(ratio ** 2 + 1.0 - 2.0 * ratio * reg.c12), abs=1e-15)
