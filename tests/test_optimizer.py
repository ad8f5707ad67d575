import functools
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ceapsk.optimizer as optimizer
from ceapsk.channel import annulus_arrays, sample_rayleigh
from ceapsk.constellation import med, modulus_ratio
from ceapsk.optimizer import (_MAX_CELLS, DesignResult, _CellSearch,
                              _solve_grid, _solve_n2, build_region_table,
                              build_suboptimal_table, solve_p2, solve_p21)


def test_solve_p21_examples():
    assert solve_p21(16, 5) / np.pi == pytest.approx(0.0182, abs=1e-4)
    assert solve_p21(16, 8) / np.pi == pytest.approx(0.1250, abs=1e-4)
    assert solve_p21(2, 1) == pytest.approx(np.pi)
    assert math.cos(solve_p21(2, 1)) == pytest.approx(-1.0)


def test_solve_p21_range_error():
    with pytest.raises(ValueError):
        solve_p21(16, 0)
    with pytest.raises(ValueError):
        solve_p21(16, 16)


def _worst_cosine(n, n2, omegas):
    """Largest cosine of any inner-outer angle difference, per offset."""
    k = np.arange(n2)[:, None, None]
    m = np.arange(n - n2)[None, :, None]
    diff = 2 * np.pi * k / n2 - 2 * np.pi * m / (n - n2) + omegas
    return np.cos(diff).max(axis=(0, 1))


def test_solve_p21_matches_brute_force():
    for n in range(2, 33):
        for n2 in range(1, n):
            omega2 = solve_p21(n, n2)
            c12 = math.cos(omega2)
            worst = _worst_cosine(n, n2, np.array([omega2]))[0]
            assert c12 == pytest.approx(worst, abs=1e-12), (n, n2)
            # offsets one outer-ring step apart give the same difference set
            grid = np.linspace(0.0, 2 * np.pi / (n - n2), 1001)
            assert _worst_cosine(n, n2, grid).min() >= c12 - 1e-9, (n, n2)


def _b(count):
    return 1.0 - math.cos(2.0 * np.pi / count)


def _n2_design(n, n2, ratio):
    """(d_min, rho2, tracking) of the radius subproblem at one ratio."""
    d, rho2, track = _solve_n2(n, n2, np.array([ratio]))
    return float(d[0]), float(rho2[0]), bool(track[0])


def test_find_rho2_cases():
    # N=16, N2=6, ratio 0.25 lands in case i: rho2 = rho_bar, where the
    # inner-ring MED sqrt(2 B2) rho2 meets the inter-ring distance
    c12 = math.cos(solve_p21(16, 6))
    d, rho2, track = _n2_design(16, 6, 0.25)
    assert 0.25 < rho2 < c12 and not track
    assert d == pytest.approx(math.sqrt(2 * _b(6)) * rho2)
    assert d == pytest.approx(math.sqrt(1 + rho2 ** 2 - 2 * rho2 * c12))

    # N=16, N2=4: ratio 0.55 -> case iii with the boundary-tracking formula
    c12 = math.cos(solve_p21(16, 4))
    d, rho2, track = _n2_design(16, 4, 0.55)
    assert (rho2, track) == (0.55, True)
    assert d == pytest.approx(math.sqrt(0.55 ** 2 + 1 - 2 * 0.55 * c12))

    # same geometry at ratio 0.45 -> case iv with d = sqrt(2 B1)
    d, rho2, track = _n2_design(16, 4, 0.45)
    assert 0.45 < rho2 < c12 and not track
    assert d == pytest.approx(math.sqrt(2 * _b(12)))


def test_find_rho2_precondition():
    # region I needs C* > r/R; at or past it the inner ring sits at rho2 = 1
    c12 = math.cos(solve_p21(16, 4))
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


def test_region_table_size_check():
    # the same size check as solve_p2's
    for n in (0, 1, 7):
        with pytest.raises(ValueError, match="even"):
            build_region_table(n)
    with pytest.warns(UserWarning, match="power of two"):
        build_region_table(6)


def _design_points(n, res):
    """The design's point set: N - n2 points at radius 1 and offset 0, then
    n2 at radius rho2 and offset omega2."""
    n1 = n - res.n2
    return np.concatenate([
        np.exp(2j * np.pi * np.arange(n1) / n1),
        res.rho2 * np.exp(1j * (2.0 * np.pi * np.arange(res.n2) / res.n2
                                + res.omega2))])


_SIZES = (2, 4, 8, 16, 32, 64)


@functools.lru_cache(maxsize=None)
def _table(n, suboptimal=False):
    return (build_suboptimal_table(_table(n)) if suboptimal
            else build_region_table(n))


def test_solve_p2_output_feasible():
    for n in _SIZES:
        for q in np.linspace(0, 1, 21):
            res = solve_p2(n, float(q))
            assert 1 <= res.n2 <= n // 2 and q <= res.rho2 <= 1.0, (n, q)
            assert modulus_ratio(_design_points(n, res)) >= q - 2e-12, (n, q)


def test_solve_p2_dmin_matches_point_set():
    for n in _SIZES:
        for q in np.linspace(0, 1, 21):
            res = solve_p2(n, float(q))
            assert med(_design_points(n, res)) == pytest.approx(
                res.d_min, abs=1e-9), (n, q)


@pytest.mark.parametrize("n", [4, 8, 32, 64])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(q=st.floats(0.0, 1.0))
def test_solve_p2_matches_grid_oracle(n, q):
    # the ratio sits among others on the grid, so each grid point is
    # solved on its own
    res = solve_p2(n, q)
    d, n2, _, _ = _solve_grid(n, np.array([0.0, q, 0.5, 1.0]))
    assert res.d_min == pytest.approx(d[1], rel=0.0, abs=1e-12)
    assert res.n2 == n2[1]
    assert med(_design_points(n, res)) == pytest.approx(res.d_min, abs=1e-9)


def test_dmin_monotone_in_ratio():
    for n in (8, 16, 32):
        prev = np.inf
        for q in np.linspace(0, 1, 101):
            d = solve_p2(n, float(q)).d_min
            assert d <= prev + 1e-12
            prev = d


def test_region_table_n8():
    table = build_region_table(8)
    assert len(table.regions) == 3
    bounds = [reg.hi for reg in table.regions[:-1]]
    np.testing.assert_allclose(bounds, [0.1495, 0.2705], atol=1e-4)
    assert table.regions[0].n2 == 1
    assert table.regions[0].rho2 == pytest.approx(0.1495, abs=1e-4)
    assert table.regions[0].d_min == pytest.approx(0.8678, abs=1e-4)
    assert table.regions[2].n2 == 4
    assert table.regions[2].d_min == pytest.approx(0.7654, abs=1e-4)


def test_region_table_n2_single_region():
    table = build_region_table(2)
    assert len(table.regions) == 1
    assert table.regions[0].d_min == pytest.approx(2.0)


def _solved_d_min(n, ratios):
    """_solve_grid's d_min."""
    return _solve_grid(n, ratios)[0]


@pytest.mark.filterwarnings("ignore:N=.*power of two")
def test_region_table_consistency():
    # every boundary is exact, so the table's MED matches the solver on a
    # 5e-6 sweep and 2e-6 either side of every region start, up to N=256;
    # N=6 and N=20 are the sizes whose float ties made sliver regions
    for n in (*_SIZES, 6, 20, 128, 256):
        table = _table(n)
        lo = np.array([reg.lo for reg in table.regions])
        ratios = np.clip(np.concatenate([np.arange(200_001) * 5e-6,
                                         lo - 2e-6, lo + 2e-6]), 0.0, 1.0)
        np.testing.assert_allclose(table.d_min_at(ratios),
                                   _solved_d_min(n, ratios), atol=1e-9,
                                   err_msg=f"N={n}")


@pytest.mark.filterwarnings("ignore:N=.*power of two")
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 128).map(lambda k: 2 * k), data=st.data())
def test_region_table_matches_solver(n, data):
    # ratios anywhere in [0, 1], or within 1e-6 of a region start; a table
    # build costs far more than a lookup, so each example draws several
    table = _table(n)
    starts = np.array([reg.lo for reg in table.regions])
    ratios = np.array(data.draw(st.lists(st.floats(0.0, 1.0) | st.builds(
        lambda lo, dx: min(max(lo + dx, 0.0), 1.0),
        st.sampled_from(starts.tolist()), st.floats(-1e-6, 1e-6)),
        min_size=1, max_size=20)))
    d, n2, _, track = _solve_grid(n, ratios)
    np.testing.assert_allclose(table.d_min_at(ratios), d, rtol=1e-12, atol=0)
    # at a region start the solver's own rounding may pick either side
    gap = np.abs(ratios[:, None] - starts[1:]).min(axis=1, initial=1.0)
    away = gap > 1e-12
    idx, got_n2, _, _ = table.params_at(ratios[away])
    tracking = np.array([reg.rho2_rule == "track_ratio"
                         for reg in table.regions])
    np.testing.assert_array_equal(got_n2, n2[away])
    np.testing.assert_array_equal(tracking[idx], track[away])


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_dmin_never_overstates_point_set_med(n):
    # within 1e-7 of every region start, the MED the table reports is that
    # of the point set params_at gives, to 1e-12 relative
    table = _table(n)
    lo = np.array([reg.lo for reg in table.regions])
    ratios = np.clip((lo[:, None] + np.linspace(-1e-7, 1e-7, 21)).ravel(),
                     0.0, 1.0)
    _, n2, omega2, rho2 = table.params_at(ratios)
    for q, d, k, w, r in zip(ratios, table.d_min_at(ratios), n2, omega2, rho2):
        true_med = med(_design_points(n, DesignResult(d, k, w, r)))
        assert d <= true_med * (1.0 + 1e-12), (n, q)


def test_region_table_partition():
    table = build_region_table(16)
    assert table.regions[0].lo == 0.0
    assert table.regions[-1].hi == 1.0
    for a, b in zip(table.regions, table.regions[1:]):
        assert a.hi == pytest.approx(b.lo)


def test_region_table_csv(tmp_path):
    table = build_region_table(8)
    path = tmp_path / "t.csv"
    table.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("region,ratio_lo,ratio_hi,rho2,N2,omega2_over_pi")
    assert len(lines) == 4


def test_suboptimal_table_n16():
    table = build_region_table(16)
    sub = build_suboptimal_table(table)
    assert len(sub.regions) == 2
    assert sub.regions[0] == table.regions[0]
    assert sub.regions[1].hi == 1.0
    assert sub.regions[1].n2 == 8
    assert sub.regions[1].rho2 == pytest.approx(1.0)
    assert sub.regions[1].d_min == pytest.approx(0.3902, abs=1e-4)


def test_suboptimal_table_n8_second_region_is_8psk():
    sub = build_suboptimal_table(build_region_table(8))
    reg = sub.regions[1]
    # two rings of 4 at rho2=1 with quarter-turn offset = 8-PSK
    pts = _design_points(8, reg)
    psk8 = np.exp(2j * np.pi * np.arange(8) / 8)
    assert np.allclose(np.sort(np.angle(pts) % (2 * np.pi)),
                       np.sort(np.angle(psk8) % (2 * np.pi)), atol=1e-9)
    assert np.allclose(np.abs(pts), 1.0)


def test_suboptimal_single_region_passthrough():
    table = build_region_table(4)
    assert build_suboptimal_table(table) == table


def test_region_probabilities():
    # region occupancy under i.i.d. Rayleigh fading, read through the lookup
    table = build_region_table(8)
    inner, outer = annulus_arrays(sample_rayleigh(4, 1.0, 0, trials=2 * 10 ** 5),
                                  1.0)
    probs = np.bincount(table.index(inner / outer),
                        minlength=len(table.regions)) / inner.size
    assert probs.sum() == pytest.approx(1.0)
    assert probs[0] == pytest.approx(0.9766, abs=0.005)


_TABLES = [(n, False) for n in (2, 4, 8, 16, 32, 64)] + [(16, True)]

# SHA-256 of to_json() per (n, suboptimal).
# Recorded once every boundary came from the closed-form candidates.  N=2
# and N=4 then changed only because to_json lost its grid_step key and
# writes algorithm_version 2; every other size also because its boundaries
# became exact, and N=128 and N=256 because each gained a region.
_TABLE_SHA256 = {
    (2, False): "1fe956abf1a79305d55d7dc1302552479658e417b0b89d58fc1821786a44e6f5",
    (4, False): "e44eb37aa6d75f6f629f68c565fbf01f38087a5587301e778651802e01dc176d",
    (8, False): "052c590e31ed36c061e09bd6605977a673b585b4ecd56756bb0b41679038e22c",
    (16, False): "fd4150aa2f96b6b57d04787eed6fe75a5d47509ba5b07efa3d0fcca4473eb08b",
    (32, False): "21186a9cea0022e39ad3e6dfe66ca6cc9aae6c9c52cb2ef0448251b0b70f24f8",
    (64, False): "12886857b085b5c2d792ecf52258fa51b19b52528f41b22d28415f46401e6dca",
    (16, True): "1443bfbd0d199b9cbfcd69d720646383cf5fc48e41c3aeda45d67e87c068d44e",
    (128, False): "c21b43b6392c9214cdc63ae35579e238095912364d19edf743f4110651cfc9b7",
    (256, False): "ac7a9a017b0a3a60304a9f9ceb022088e1d8f4049d3a217e154dd62c2deea901",
}


@pytest.mark.parametrize("key", _TABLE_SHA256,
                         ids=["-".join(map(str, key)) for key in _TABLE_SHA256])
def test_region_table_bytes_pinned(key):
    text = _table(*key).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == _TABLE_SHA256[key]


def _stacked_solve_grid(n, ratios):
    """Reference _solve_grid: every count's rows stacked, then the first
    maximum (np.argmax), so a tie in d_min goes to the smaller count."""
    ratios = np.asarray(ratios, dtype=float)
    d_all, rho_all, track_all = (np.array(rows) for rows in zip(*(
        _solve_n2(n, n2, ratios) for n2 in range(1, n // 2 + 1))))
    best = np.argmax(d_all, axis=0)
    cols = np.arange(ratios.size)
    return (d_all[best, cols], best + 1, rho_all[best, cols],
            track_all[best, cols])


@pytest.mark.filterwarnings("ignore:N=.*power of two")
def test_region_table_tie_rule_matches_stacked_argmax(monkeypatch):
    # N=6 and N=20 have counts whose d_min tie to the ulp; with their
    # sliver regions dropped, a tie rule other than the first maximum still
    # moves N=20's table
    sizes = range(2, 65, 2)
    got = [build_region_table(n).to_json() for n in sizes]
    monkeypatch.setattr(optimizer, "_solve_grid", _stacked_solve_grid)
    want = [build_region_table(n).to_json() for n in sizes]
    assert [n for n, a, b in zip(sizes, got, want) if a != b] == []


@pytest.fixture(scope="module")
def even_tables():
    """(n, table) for the optimal and the suboptimal table of every even
    N <= 256, each built once."""
    return [(n, _table(n, sub)) for n in range(2, 257, 2)
            for sub in (False, True)]


@pytest.mark.filterwarnings("ignore:N=.*power of two")
def test_region_tables_have_no_sliver_regions(even_tables):
    # a float tie between two designs (N=6 at q = 0, N=20 at q = 0.618) once
    # made a region one ulp wide; the narrowest real region is 3.0e-9 (N=254)
    narrow = [(n, reg.lo) for n, table in even_tables
              for reg in table.regions if reg.hi - reg.lo < 1e-12]
    assert narrow == []
    assert [reg.n2 for reg in _table(6).regions] == [3]


# SHA-256 of the to_json() of every table in even_tables, in order; pruning
# the table build must keep these bytes
_EVEN_TABLES_SHA256 = (
    "e98fbdfc25814f60db6fb2bd62a474fbd12ec599d2041878ea621d9656455962")


@pytest.mark.filterwarnings("ignore:N=.*power of two")
def test_every_even_table_pinned(even_tables):
    digest = hashlib.sha256()
    for _, table in even_tables:
        digest.update(table.to_json().encode())
    assert digest.hexdigest() == _EVEN_TABLES_SHA256


def test_solver_and_lookup_share_the_formula():
    # inside a formula region the table's MED is the solver's f(q), bit for
    # bit: one expression serves both
    for n in (8, 16, 32, 64, 128):
        table = _table(n)
        formula = [reg for reg in table.regions if reg.d_min_rule == "formula"]
        assert formula, n  # the check itself reaches a formula region
        for reg in formula:
            ratios = np.linspace(reg.lo, reg.hi, 2003)[1:-1]
            np.testing.assert_array_equal(_solve_n2(n, reg.n2, ratios)[0],
                                          table.d_min_at(ratios),
                                          err_msg=f"N={n} N2={reg.n2}")


def test_region_table_build_memory_is_bounded():
    # N=256 solves about 56,000 midpoints over 128 counts: the running best
    # holds one count's rows at a time (about 6 MiB), where stacking every
    # count's rows would take about 20 MiB
    tracemalloc.start()
    try:
        build_region_table(256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20


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
    # both lookups equal the general path, a searchsorted over the region
    # starts and the formula where a region uses it, for any input, NaN and
    # out-of-range ratios included: N=2 and N=4 have one region, and every
    # region of a two-region table is constant
    probe = np.array([ratio, np.nan, -1.0, 2.0, -np.inf, np.inf, -0.0])
    col = table._arrays
    upper = np.array([reg.lo for reg in regs[1:]], dtype=float)
    want_idx = np.searchsorted(upper, probe, side="right")
    with np.errstate(invalid="ignore"):
        formula = np.sqrt(np.maximum(
            probe ** 2 - probe * col["c12x2"][want_idx] + 1.0, 0.0))
        got_d = table.d_min_at(probe)
    want_d = np.where(col["const"][want_idx], col["d_min"][want_idx], formula)
    got_idx = table.index(probe)
    assert got_idx.dtype == want_idx.dtype
    np.testing.assert_array_equal(got_idx, want_idx)
    np.testing.assert_array_equal(got_d, want_d)
    assert type(table.index(ratio)) is type(np.searchsorted(upper, ratio))


# ---------------------------------------------------------------------------
# The sorted-edge lookup against searchsorted

_SPECIAL = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, -1.0,
            -2.5, 1e300, -1e-300, np.inf, -np.inf]


def _dense(base, k):
    """k edges a relative 1e-4 apart: about 39 to a cell."""
    return (base * (1.0 + 1e-4 * np.arange(k))).tolist()


_EDGE_SETS = st.one_of(
    st.lists(st.sampled_from(_SPECIAL), max_size=8),
    st.lists(st.floats(allow_nan=False), max_size=12),
    st.builds(_dense, st.floats(1e-12, 1e12), st.integers(1, 80)),
    # 1e-300 to 1e300 spans far more octaves than the table holds
    st.lists(st.integers(-300, 300).map(lambda e: 10.0 ** e), max_size=30),
)


def _near(values):
    """Each value and its one- and two-ulp neighbours."""
    values = np.asarray(values, dtype=float)
    out = [values]
    with np.errstate(over="ignore"):  # the largest doubles step to inf
        for toward in (-np.inf, np.inf):
            one = np.nextafter(values, toward)
            out += [one, np.nextafter(one, toward)]
    return np.concatenate(out)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(parts=st.lists(_EDGE_SETS, min_size=1, max_size=3),
       dup=st.integers(0, 4), data=st.data())
def test_cell_search_matches_searchsorted(parts, dup, data):
    edges = sum(parts, [])
    edges = np.sort(np.array(edges + edges[:dup], dtype=float))
    search = _CellSearch(edges)
    assert search.count.size <= _MAX_CELLS
    random = data.draw(st.lists(st.floats(allow_nan=True), max_size=20))
    x = np.concatenate((
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan], _near(edges),
        _near(_SPECIAL), np.array(random, dtype=float)))
    with np.errstate(invalid="ignore"):
        want = np.searchsorted(edges, x, side="right")
    got = search(x)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    # empty and 0-d inputs keep their shape; a scalar gives a scalar
    assert search(np.empty(0)).shape == (0,)
    assert search(np.empty((0, 3))).shape == (0, 3)
    even = x.size // 2 * 2
    assert search(x[:even].reshape(-1, 2)).tolist() == \
        want[:even].reshape(-1, 2).tolist()
    for value in x[:8].tolist() + [data.draw(st.sampled_from(x.tolist()))]:
        one = np.searchsorted(edges, value, side="right")
        assert type(search(value)) is type(one)
        assert search(value) == one
        assert search(np.array(value)) == one


def test_cell_search_without_edges():
    # a single-region table's lookup answers 0 for every x, with no table
    search = _CellSearch([])
    x = np.array([0.5, np.nan, -0.0, -1.0, np.inf, -np.inf, 0.0])
    with np.errstate(invalid="ignore"):
        want = np.searchsorted([], x, side="right")
    got = search(x)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    for value in x.tolist():
        one = np.searchsorted([], value, side="right")
        assert type(search(value)) is type(one)
        assert search(value) == one
