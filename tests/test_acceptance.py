"""Acceptance gate: thirteen end-to-end criteria.

Each criterion prints exactly one pass/fail line with the measured values so
a plain `pytest -v` run doubles as a report.  Heavy Monte Carlo artifacts are
built once and shared across criteria.  Criterion 9 checks its Monte Carlo
curves against an exact averaged SER, and criterion 11 its M=2 curves
against exact average bits; the oracles' building blocks are checked
against closed forms by the three oracle tests.
"""

import functools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy import integrate
from scipy.optimize import brentq
from scipy.special import erfc, erfcinv

import ceapsk
from ceapsk.channel import annulus_arrays, ratio_cdf_m2, sample_rayleigh
from ceapsk.constellation import med, modulus_ratio, qam_family
from ceapsk.optimizer import (_solve_n2, build_region_table,
                              build_suboptimal_table, solve_p2, solve_p21)
from ceapsk.precoder import _receive, transmit
from ceapsk.sim import (SimConfig, run_csit_sweep, run_fixed_rate_ser,
                        run_variable_rate, snr_at_bits, snr_at_ser)

SEED = 0


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\ncriterion {num:2d}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# Shared artifacts

@functools.lru_cache(maxsize=None)
def table(n):
    return build_region_table(n)


@functools.lru_cache(maxsize=None)
def fixed_rate_curve(scheme):
    snr = tuple(float(s) for s in range(18, 33))
    tab = None
    if scheme == "proposed-optimal":
        tab = table(16)
    elif scheme == "proposed-suboptimal":
        tab = build_suboptimal_table(table(16))
    cfg = SimConfig(m=2, snr_db=snr, trials=10 ** 6, scheme=scheme, seed=SEED)
    return run_fixed_rate_ser(cfg, tab)


# Published region tables: (lo, hi, rho2 ("track" = r/R), N2, omega2/pi,
# d_min (None = formula)).
PUBLISHED = {
    8: [(0.0, 0.1495, 0.1495, 1, 0.1429, 0.8678),
        (0.1495, 0.2705, "track", 1, 0.1429, None),
        (0.2705, 1.0, 1.0, 4, 0.2500, 0.7654)],
    16: [(0.0, 0.4603, 0.4603, 5, 0.0182, 0.5411),
         (0.4603, 0.4839, "track", 5, 0.0182, None),
         (0.4839, 0.5176, 0.5176, 4, 0.0833, 0.5176),
         (0.5176, 0.5588, "track", 4, 0.0833, None),
         (0.5588, 0.6302, 0.6302, 8, 0.1250, 0.4824),
         (0.6302, 0.8477, "track", 8, 0.1250, None),
         (0.8477, 1.0, 1.0, 8, 0.1250, 0.3902)],
    32: [(0.0, 0.6764, 0.6764, 13, 0.0931, 0.3238),
         (0.6764, 0.6873, "track", 13, 0.0931, None),
         (0.6873, 0.6902, 0.6902, 12, 0.0167, 0.3129),
         (0.6902, 0.7074, "track", 12, 0.0167, None),
         (0.7074, 0.7583, 0.7583, 16, 0.0625, 0.2959),
         (0.7583, 0.9615, "track", 16, 0.0625, None),
         (0.9615, 1.0, 1.0, 16, 0.0625, 0.1960)],
    64: [(0.0, 0.8222, 0.8222, 29, 0.0030, 0.1778),
         (0.8222, 0.8257, "track", 29, 0.0030, None),
         (0.8257, 0.8261, 0.8261, 28, 0.0119, 0.1743),
         (0.8261, 0.8321, "track", 28, 0.0119, None),
         (0.8321, 0.8584, 0.8584, 32, 0.0312, 0.1683),
         (0.8584, 0.9903, "track", 32, 0.0312, None),
         (0.9903, 1.0, 1.0, 32, 0.0312, 0.0981)]}


def _tie_midpoints(n, n2):
    """All offset values achieving the optimal worst-case cosine, as
    fractions of pi (midpoints of every maximal gap)."""
    n1 = n - n2
    ts = {-n2}
    for m in range(n1):
        for k in range(n2):
            t = k * n1 - m * n2
            if -n2 < t <= 0:
                ts.add(t)
    xs = sorted(ts, reverse=True)
    gaps = [xs[k + 1] - xs[k] for k in range(len(xs) - 1)]
    g = min(gaps)
    return [-(xs[k] + xs[k + 1]) / 2 * 2.0 / (n1 * n2)
            for k, gk in enumerate(gaps) if gk == g]


def check_published_table(n):
    """Compare the built table to the published one.

    omega2 uses the discrepancy protocol: a differing value is accepted if
    the published offset is one of the tied optimal gap midpoints (then it
    achieves the exact same worst-case cosine); otherwise the mismatch is
    reported with our value and the published one.
    """
    tab = table(n)
    rows = PUBLISHED[n]
    problems, notes = [], []
    if len(tab.regions) != len(rows):
        return [f"region count {len(tab.regions)} != {len(rows)}"], notes
    for i, (reg, row) in enumerate(zip(tab.regions, rows), start=1):
        lo, hi, rho, n2, om_pi, dmin = row
        if abs(reg.lo - lo) > 1e-4 or abs(reg.hi - hi) > 1e-4:
            problems.append(f"R{i} bounds [{reg.lo:.4f},{reg.hi:.4f}) "
                            f"vs [{lo},{hi})")
        if reg.n2 != n2:
            problems.append(f"R{i} N2 {reg.n2} vs {n2}")
        if rho == "track":
            if reg.rho2_rule != "track_ratio":
                problems.append(f"R{i} rho2 rule {reg.rho2_rule} vs r/R")
        elif reg.rho2 is None or abs(reg.rho2 - rho) > 1e-4:
            problems.append(f"R{i} rho2 {reg.rho2} vs {rho}")
        if dmin is None:
            if reg.d_min_rule != "formula":
                problems.append(f"R{i} dmin rule {reg.d_min_rule} vs formula")
        elif reg.d_min is None or abs(reg.d_min - dmin) > 1e-4:
            problems.append(f"R{i} dmin {reg.d_min} vs {dmin}")
        ours_pi = reg.omega2 / np.pi
        if abs(ours_pi - om_pi) > 1e-4:
            mids = _tie_midpoints(n, n2)
            if min(abs(m - om_pi) for m in mids) <= 1e-4:
                notes.append(f"R{i} omega2 tie: ours {ours_pi:.4f}pi, "
                             f"published {om_pi}pi ({len(mids)} tied optima)")
            else:
                problems.append(f"R{i} omega2 {ours_pi:.4f}pi vs {om_pi}pi, "
                                f"tie set {[round(m, 4) for m in mids]}")
    return problems, notes


# ---------------------------------------------------------------------------
# Exact averaged SER of a scheme for M=2 (oracle for criterion 9)
#
# With s = (|h1|+|h2|)/sqrt(beta) and q = r/R, two i.i.d. Rayleigh gains have
# the joint density s^3 (1-q^2) exp(-s^2 (1+q^2)/2) on s > 0, 0 <= q <= 1.
# The precoder realizes R times the symbol exactly (criterion 8), so symbol i
# of the scheme's constellation at q is missed with probability
# (1/2pi) int exp(-SNR s^2 rho_i(phi)^2 / 2) dphi, where rho_i(phi) is the
# distance from the point to the edge of its Voronoi cell in direction phi
# (Craig's form; infinite where the cell is unbounded).  The s-integral is
# closed form, which leaves
#   SER = int_0^1 dq (1/N) sum_i (1/2pi) int 2(1-q^2)/(1+q^2+SNR rho_i^2)^2 dphi
# evaluated by Gauss-Legendre in q, split where the constellation changes
# (a region table's bounds, or 16-QAM's ratio limit 1/3), and the
# midpoint rule in phi.  64 x 8192 nodes move the N=16 SNRs by < 1e-6 dB.

N_Q = 16          # Gauss-Legendre nodes per piece
N_PHI = 1024      # midpoint nodes over [0, 2 pi)
_PHI = 2.0 * np.pi * (np.arange(N_PHI) + 0.5) / N_PHI


def _m2_density(s, q):
    """Joint density of (s, q) for M=2 i.i.d. Rayleigh fading."""
    return s ** 3 * (1.0 - q * q) * np.exp(-s * s * (1.0 + q * q) / 2.0)


def _s_integral(q, c):
    """int_0^inf _m2_density(s, q) exp(-c s^2 / 2) ds, in closed form."""
    return 2.0 * (1.0 - q * q) / (1.0 + q * q + c) ** 2


def _q_nodes(lo, hi):
    """Gauss-Legendre nodes and weights in q over [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(N_Q)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _region_points(n, reg, q):
    """The region's two-ring constellation at r/R = q, outer ring first."""
    n1 = n - reg.n2
    rho2 = q if reg.rho2_rule == "track_ratio" else reg.rho2
    outer = np.exp(2j * np.pi * np.arange(n1) / n1)
    inner = rho2 * np.exp(1j * (2.0 * np.pi * np.arange(reg.n2) / reg.n2
                                + reg.omega2))
    return np.concatenate([outer, inner])


def _voronoi_reach(points):
    """rho_i(phi) for every point, shape (N, N_PHI); inf where unbounded."""
    d = points[None, :] - points[:, None]
    proj = (d[:, :, None] * np.exp(-1j * _PHI)).real
    ahead = proj > 0.0
    cut = np.abs(d[:, :, None]) ** 2 / (2.0 * np.where(ahead, proj, 1.0))
    return np.where(ahead, cut, np.inf).min(axis=1)


def table_pieces(tab):
    """The (q-piece, point set) pairs of a region table: each region's
    bounds and its constellation as a function of q."""
    return [((reg.lo, reg.hi),
             functools.partial(_region_points, tab.size, reg))
            for reg in tab.regions]


# adaptive-qam-psk sends 16-QAM where it fits the annulus, else 16-PSK
ADAPTIVE_PIECES = [((0.0, 1.0 / 3.0), lambda q: qam_family(16)),
                   ((1.0 / 3.0, 1.0),
                    lambda q: np.exp(2j * np.pi * np.arange(16) / 16))]


def exact_ser_m2(pieces):
    """SER(snr_db) averaged exactly over M=2 fading, for a scheme that sends
    points(q) while r/R = q lies in [lo, hi], over the ((lo, hi), points)
    pairs of pieces."""
    qs, ws, reach2 = [], [], []
    for (lo, hi), points in pieces:
        q, w = _q_nodes(lo, hi)
        qs.append(q)
        ws.append(w)
        reach2 += [_voronoi_reach(points(qq)) ** 2 for qq in q]
    q = np.concatenate(qs)[:, None, None]
    w = np.concatenate(ws)
    reach2 = np.array(reach2)

    def ser(snr_db):
        snr = 10.0 ** (snr_db / 10.0)
        return float(w @ _s_integral(q, snr * reach2).mean(axis=(1, 2)))
    return ser


def exact_snr_at_ser(ser, target, lo, hi):
    """SNR (dB) in [lo, hi] where an exact SER function equals the target."""
    return brentq(lambda x: math.log10(ser(x) / target), lo, hi, xtol=1e-6)


# ---------------------------------------------------------------------------
# Exact average bits of the variable-rate schemes for M=2 (oracle for
# criterion 11)
#
# On the (s, q) law above, R = s sqrt(SNR sigma^2 / M), and size N_j's union
# bound meets Pe when R d_min,j(q) >= 2 sigma erfcinv(2 Pe / (N_j - 1)), that
# is when s >= c_j(q) = 2 sqrt(M) erfcinv(2 Pe / (N_j - 1)) / (sqrt(SNR)
# d_min,j(q)) (inf where the size is infeasible).  The largest such size is
# sent, so N_j or larger is sent when s >= c*_j(q) = min over k >= j of c_k(q).
# Given q the s-tail is closed form,
#   int_c^inf s^3 (1-q^2) exp(-s^2 a/2) ds = (1-q^2) exp(-a c^2/2) (a c^2+2)/a^2
# with a = 1+q^2, so with b_j = log2 N_j (b_0 = 0) and tail_j the tail at c*_j
#   E[bits]   = int_0^1 sum_j (b_j - b_{j-1}) tail_j dq,
#   E[bits^2] = int_0^1 sum_j (b_j^2 - b_{j-1}^2) tail_j dq,
# evaluated by Gauss-Legendre in q, split at every region bound and QAM
# feasibility ratio, where some d_min,j(q) jumps.

RATE_SIZES = (2, 4, 8, 16, 32, 64)
N_Q_RATE = 32     # nodes per piece; 64 move the exact gap by < 1e-12 dB


def _s_tail(q, c):
    """int_c^inf _m2_density(s, q) ds, in closed form; 0 for c = inf."""
    a = 1.0 + q * q
    ac2 = a * np.minimum(c, 1e3) ** 2  # exp(-5e5) is 0: no mass past s = 1e3
    return (1.0 - q * q) * np.exp(-ac2 / 2.0) * (ac2 + 2.0) / a ** 2


def exact_bits_m2(tables, target_ser):
    """(E[bits], E[bits^2])(snr_db) of variable-rate selection at M=2: over
    a region table per size of RATE_SIZES, or the QAM family for None."""
    sizes = np.array(RATE_SIZES)
    if tables is None:
        limits = [(modulus_ratio(p), med(p)) for p in map(qam_family, sizes)]
        cuts = [ratio for ratio, _ in limits]
    else:
        cuts = [reg.lo for n in sizes for reg in tables[n].regions]
    edges = np.unique(np.clip([0.0, 1.0, *cuts], 0.0, 1.0))
    x, w = np.polynomial.legendre.leggauss(N_Q_RATE)
    half = np.diff(edges)[:, None] / 2.0
    q, w = edges[:-1, None] + half * (x + 1.0), half * w  # (pieces, nodes)
    # self-check: with no threshold, each piece holds its share of the r/R law
    mass = (w * _s_tail(q, 0.0)).sum(axis=1)
    assert np.max(np.abs(mass - np.diff(ratio_cdf_m2(edges)))) <= 1e-9
    q, w = q.ravel(), w.ravel()
    if tables is None:
        d = np.array([np.where(q <= ratio, dm, 0.0) for ratio, dm in limits])
    else:
        d = np.array([tables[n].d_min_at(q) for n in sizes])
    # c_j(q) at an SNR of 1, inf where d_min is 0 (the size is infeasible)
    scale = 2.0 * math.sqrt(2.0) * erfcinv(2.0 * target_ser / (sizes - 1))
    with np.errstate(divide="ignore"):
        c = scale[:, None] / d
    c_star = np.minimum.accumulate(c[::-1])[::-1]
    bits = np.log2(sizes)
    steps = np.diff(bits, prepend=0.0), np.diff(bits ** 2, prepend=0.0)

    def moments(snr_db):
        tail = _s_tail(q, c_star / math.sqrt(10.0 ** (snr_db / 10.0))) @ w
        return tuple(float(step @ tail) for step in steps)
    return moments


# ---------------------------------------------------------------------------


def test_criterion_01_table_n16():
    t0 = time.perf_counter()
    tab = table(16)
    dt = time.perf_counter() - t0
    problems, notes = check_published_table(16)
    ok = not problems and len(tab.regions) == 7 and dt < 120
    detail = (f"N=16 table: {len(tab.regions)} regions in {dt:.1f}s"
              + (f"; notes: {'; '.join(notes)}" if notes else "")
              + (f"; problems: {'; '.join(problems)}" if problems else ""))
    report(1, ok, detail)


def test_criterion_02_tables_n8_n32_n64():
    problems, notes, times = [], [], {}
    for n in (8, 32, 64):
        t0 = time.perf_counter()
        table(n)
        times[n] = time.perf_counter() - t0
        p, m = check_published_table(n)
        problems += [f"N={n}: {x}" for x in p]
        notes += [f"N={n}: {x}" for x in m]
    ok = not problems and times[64] < 600
    detail = (f"build times {times[8]:.1f}/{times[32]:.1f}/{times[64]:.1f}s"
              + (f"; tie-equivalent omegas: {'; '.join(notes)}" if notes else "")
              + (f"; problems: {'; '.join(problems)}" if problems else ""))
    report(2, ok, detail)


def test_criterion_03_degenerate_sizes():
    worst = 0.0
    for q in (0.0, 0.25, 0.5, 0.75, 1.0):
        worst = max(worst, abs(solve_p2(2, q).d_min - 2.0),
                    abs(solve_p2(4, q).d_min - math.sqrt(2.0)))
    report(3, worst < 1e-12,
           f"BPSK d=2 and QPSK d=sqrt(2) at 5 ratios, worst dev {worst:.2e}")


def test_criterion_04_algorithm1_oracle():
    worst = 0.0
    bad = []
    for n in (8, 16, 32, 64):
        for n2 in range(1, n // 2 + 1):
            n1 = n - n2
            c12 = math.cos(solve_p21(n, n2))
            mm, nn = np.meshgrid(np.arange(n1), np.arange(n2))
            diffs = np.unique(np.round(
                (2 * np.pi * nn / n2 - 2 * np.pi * mm / n1) % (2 * np.pi), 12))
            # grid over one period (2 pi / N1), sized >= 1e5 and commensurate
            # with the half-gap lattice so the exact optimum is on-grid
            count = 2 * n2 * math.ceil(100_000 / (2 * n2))
            omg = -2 * np.pi / n1 * np.arange(count) / count
            # the largest cos(d + omega) over the differences d is at the
            # d circularly nearest -omega: one of its two sorted neighbours
            j = np.searchsorted(diffs, np.mod(-omg, 2 * np.pi))
            near = np.stack([diffs[j - 1], diffs[j % diffs.size]])
            best = np.cos(near + omg).max(axis=0).min()
            dev = abs(best - c12)
            worst = max(worst, dev)
            in_range = math.cos(np.pi / n1) <= c12 < 1.0
            if dev > 1e-6 or not in_range:
                bad.append(f"(N={n},N2={n2}) dev={dev:.2e}")
    report(4, not bad,
           f"C* vs 1e5-point omega grid, worst dev {worst:.2e}"
           + (f"; bad: {bad}" if bad else ""))


def _grid_best_dmin(n, n2, ratio, n_rho=2000, n_omega=2000):
    """Best d_min for a fixed inner count via 2000x2000 (rho2, omega2) grid.

    For each rho the grid maximum over omega sits at the omega minimizing
    the worst inter-ring cosine (the only omega-dependent term is
    decreasing in it), so the omega axis collapses to one min-C scan.
    """
    n1 = n - n2
    mm, nn = np.meshgrid(np.arange(n1), np.arange(n2))
    diffs = np.unique(np.round(
        (2 * np.pi * nn / n2 - 2 * np.pi * mm / n1) % (2 * np.pi), 12))
    omg = -2 * np.pi / n1 * np.arange(n_omega) / n_omega
    c_min = np.cos(diffs[:, None] + omg[None, :]).max(axis=0).min()
    rho = np.linspace(ratio, 1.0, n_rho)
    d1s = (2 * math.sin(np.pi / n1)) ** 2 if n1 > 1 else np.inf
    d2s = (2 * math.sin(np.pi / n2)) ** 2 if n2 > 1 else np.inf
    dsq = np.minimum(np.minimum(d1s, d2s * rho ** 2),
                     1.0 + rho ** 2 - 2.0 * rho * c_min)
    return math.sqrt(dsq.max())


def test_criterion_05_algorithm3_oracle():
    rng = np.random.default_rng(12345)
    worst = np.inf
    bad = []
    for _ in range(100):
        n = int(rng.choice([8, 16]))
        ratio = float(rng.uniform(0.0, 1.0))
        ours = solve_p2(n, ratio).d_min
        oracle = max(_grid_best_dmin(n, n2, ratio) for n2 in range(1, n))
        margin = ours - oracle
        worst = min(worst, margin)
        if margin < -1e-3:
            bad.append(f"(N={n},q={ratio:.4f}) ours {ours:.6f} "
                       f"oracle {oracle:.6f}")
    report(5, not bad,
           f"100 instances vs 2000x2000 grid, worst margin {worst:+.2e}"
           + (f"; bad: {bad}" if bad else ""))


def test_criterion_06_proposition1():
    rng = np.random.default_rng(99)
    bad = []
    for n in (8, 16):
        for n2 in range(n // 2 + 1, n):
            mirror = n - n2
            for ratio in rng.uniform(0.0, 1.0, size=20):
                ratio = float(ratio)
                heavy = _grid_best_dmin(n, n2, ratio)
                light_grid = _grid_best_dmin(n, mirror, ratio)
                light_exact = float(_solve_n2(n, mirror,
                                              np.array([ratio]))[0][0])
                # grid values undershoot their true optima by O(1/grid),
                # hence the 2e-3 slack on the grid-vs-grid comparison
                if heavy > light_exact + 1e-9 or heavy > light_grid + 2e-3:
                    bad.append(f"(N={n},N2={n2},q={ratio:.3f}) "
                               f"{heavy:.6f} > {light_exact:.6f}")
    report(6, not bad,
           "inner-heavy allocations never beat their mirror (N=8,16, 20 "
           "ratios each)" + (f"; bad: {bad}" if bad else ""))


def test_criterion_07_ratio_distribution():
    h = sample_rayleigh(2, 1.0, SEED, trials=10 ** 6)
    inner, outer = annulus_arrays(h, 1.0)
    ratio = inner / outer
    p_infeas = float(np.mean(ratio <= 1.0 / 3.0))
    probs = np.bincount(table(16).index(ratio)) / ratio.size
    boundary = table(16).regions[0].hi
    analytic = ratio_cdf_m2(boundary)
    ok = (abs(p_infeas - 0.600) <= 0.005
          and abs(probs[0] - 0.7596) <= 0.005
          and abs(analytic - 0.7596) <= 1e-4)
    report(7, ok,
           f"P(r/R<=1/3)={p_infeas:.4f} (0.600+-0.005); region-1 "
           f"prob={probs[0]:.4f} (0.7596+-0.005); analytic "
           f"CDF({boundary:.4f})={analytic:.5f}")


def test_criterion_08_precoder_reconstruction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = envelope = 0.0
    targets_per_channel = 1000
    for m in (2, 3, 4, 8):
        h = sample_rayleigh(m, 1.0, 100 + m, trials=10 ** 4)
        for j in range(0, 10 ** 4, 1000):
            blk = h[j:j + 1000]
            inner, outer = annulus_arrays(blk, 1.0)
            hh = np.repeat(blk, targets_per_channel, axis=0)
            r = np.repeat(inner, targets_per_channel)
            big = np.repeat(outer, targets_per_channel)
            mod = r + (big - r) * rng.uniform(size=r.size)
            d = mod * np.exp(2j * np.pi * rng.uniform(size=r.size))
            x = transmit(hh, 1.0, d)
            # every |x_i| is sqrt(P/M), P = 1
            envelope = max(envelope,
                           float(np.max(np.abs(np.abs(x) * np.sqrt(m) - 1.0))))
            got = _receive(hh, x)  # overwrites x
            worst = max(worst, float(np.max(np.abs(got - d) / big)))
    dt = time.perf_counter() - t0
    report(8, worst < 1e-9 and envelope < 1e-12 and dt < 60,
           f"4e7 targets (M=2,3,4,8), max residual {worst:.2e} R, "
           f"envelope error {envelope:.1e}, {dt:.1f}s")


def test_exact_ser_oracle_bpsk_craig():
    """The radial Voronoi integral at a fixed amplitude A reproduces the
    BPSK (+-1) error probability Q(sqrt(2) A) in Craig's form."""
    reach = _voronoi_reach(np.array([1.0 + 0j, -1.0 + 0j]))
    for amp in (0.25, 0.5, 1.0, 2.0, 3.0):
        miss = np.mean(np.exp(-(amp * reach) ** 2), axis=1)
        assert np.max(np.abs(miss - 0.5 * erfc(amp))) <= 1e-9, (amp, miss)


def test_exact_ser_oracle_m2_fading_law():
    """The (s, q) density integrates to 1, its closed-form s-integral matches
    direct quadrature, and its q-marginal over the oracle's nodes is the
    r/R law of channel.ratio_cdf_m2 on every region of the N=16 table."""
    total, _ = integrate.dblquad(_m2_density, 0.0, 1.0, 0.0, np.inf,
                                 epsabs=1e-13, epsrel=1e-12)
    assert abs(total - 1.0) <= 1e-9
    for q in (0.0, 0.3, 0.7, 0.95):
        for c in (0.0, 0.5, 40.0):
            direct, _ = integrate.quad(
                lambda s: _m2_density(s, q) * math.exp(-c * s * s / 2.0),
                0.0, np.inf, epsabs=1e-13, epsrel=1e-12)
            assert abs(direct - _s_integral(q, c)) <= 1e-9, (q, c)
    for reg in table(16).regions:
        q, w = _q_nodes(reg.lo, reg.hi)
        mass = float(w @ _s_integral(q, 0.0))
        want = ratio_cdf_m2(reg.hi) - ratio_cdf_m2(reg.lo)
        assert abs(mass - want) <= 1e-9, (reg.lo, reg.hi, mass, want)


def test_exact_bits_oracle_m2_tail():
    """The closed-form s-tail of the rate oracle matches direct quadrature,
    is the s-integral at c = 0 and vanishes at c = inf."""
    for q in (0.0, 0.3, 0.7, 0.95):
        for c in (0.5, 2.0, 6.0):
            direct, _ = integrate.quad(lambda s: _m2_density(s, q), c, np.inf,
                                       epsabs=1e-13, epsrel=1e-12)
            assert abs(direct - _s_tail(q, c)) <= 1e-9, (q, c)
        assert abs(_s_tail(q, 0.0) - _s_integral(q, 0.0)) <= 1e-15
        assert _s_tail(q, np.inf) == 0.0


def test_criterion_09_fixed_rate_ser():
    t0 = time.perf_counter()
    bench1 = run_fixed_rate_ser(
        SimConfig(m=2, snr_db=(30.0, 40.0), trials=10 ** 6,
                  scheme="fixed-qam16", seed=SEED), None)
    opt = fixed_rate_curve("proposed-optimal")
    sub = fixed_rate_curve("proposed-suboptimal")
    bench2 = fixed_rate_curve("adaptive-qam-psk")
    dt = time.perf_counter() - t0

    s30, s40 = bench1.ser
    floor_ok = (s40 > 10 ** -2.5) and (0.5 <= s40 / s30 <= 2.0)

    snr_opt = snr_at_ser(opt, 1e-3)
    snr_b2 = snr_at_ser(bench2, 1e-3)
    gain = snr_b2 - snr_opt
    gain_ok = abs(gain - 1.4) <= 0.4

    snr_sub = snr_at_ser(sub, 1e-3)
    gap = snr_sub - snr_opt
    exact_opt = exact_ser_m2(table_pieces(table(16)))
    exact_sub = exact_ser_m2(table_pieces(build_suboptimal_table(table(16))))
    exact_b2 = exact_ser_m2(ADAPTIVE_PIECES)
    lo, hi = opt.snr_db[0], opt.snr_db[-1]
    exact_snr_opt = exact_snr_at_ser(exact_opt, 1e-3, lo, hi)
    exact_gap = exact_snr_at_ser(exact_sub, 1e-3, lo, hi) - exact_snr_opt
    # Seeds 0-7 measure gaps of 0.506-0.587 dB (SD 0.026 dB) against the
    # exact 0.565 dB, so 0.1 dB is about 4 SD of the seed spread.
    gap_tol = 0.1
    gap_ok = abs(gap - exact_gap) <= gap_tol

    # every Monte Carlo point within 4 binomial sigma of the exact SER
    def worst_z(curve, exact):
        p = np.array([exact(x) for x in curve.snr_db])
        z = (curve.ser - p) / np.sqrt(p * (1.0 - p) / curve.trials)
        return float(np.max(np.abs(z)))
    worst = max(worst_z(opt, exact_opt), worst_z(sub, exact_sub))
    curve_ok = worst <= 4.0

    # (e) the gain of (b) against its exact 1.410 dB: seeds 0-7 measure
    # 1.290-1.466 dB (SD 0.066 dB), so 0.25 dB is about 4 SD; their worst
    # adaptive-curve |z| is 1.15-2.92
    exact_gain = exact_snr_at_ser(exact_b2, 1e-3, lo, hi) - exact_snr_opt
    b2_z = worst_z(bench2, exact_b2)
    exact_gain_ok = abs(gain - exact_gain) <= 0.25 and b2_z <= 4.0

    ok = (floor_ok and gain_ok and gap_ok and curve_ok and exact_gain_ok
          and dt < 1800)
    report(9, ok,
           f"(a) floor SER 30/40dB {s30:.2e}/{s40:.2e} "
           f"[{'ok' if floor_ok else 'BAD'}]; "
           f"(b) gain over benchmark-2 {gain:.2f}dB, want 1.4+-0.4 "
           f"[{'ok' if gain_ok else 'BAD'}]; "
           f"(c) suboptimal gap {gap:.3f}dB, exact {exact_gap:.3f}dB, want "
           f"within {gap_tol}dB [{'ok' if gap_ok else 'BAD'}]; "
           f"(d) optimal/suboptimal SER vs exact, worst |z| {worst:.2f}, "
           f"want <=4 [{'ok' if curve_ok else 'BAD'}]; "
           f"(e) gain {gain:.3f}dB, exact {exact_gain:.3f}dB, want within "
           f"0.25dB, adaptive SER vs exact worst |z| {b2_z:.2f}, want <=4 "
           f"[{'ok' if exact_gain_ok else 'BAD'}]; runtime {dt:.0f}s")


def test_criterion_10_union_bound_dominance():
    bad = []
    for scheme in ("proposed-optimal", "proposed-suboptimal"):
        curve = fixed_rate_curve(scheme)
        ser = curve.ser
        sigma = np.sqrt(np.maximum(ser * (1 - ser), 1e-12) / curve.trials)
        over = ser - (curve.union_bound + 3 * sigma)
        if np.any(over > 0):
            i = int(np.argmax(over))
            bad.append(f"{scheme} @ {curve.snr_db[i]:g}dB ser {ser[i]:.3e} "
                       f"bound {curve.union_bound[i]:.3e}")
    report(10, not bad,
           "Monte Carlo SER <= averaged union bound + 3 sigma at every SNR"
           + (f"; violations: {bad}" if bad else ""))


def test_criterion_11_variable_rate():
    snr = tuple(float(s) for s in range(0, 31))
    tables = {n: table(n) for n in (2, 4, 8, 16, 32, 64)}
    curves = {}
    for m in (2, 4):
        for scheme in ("variable-apsk", "variable-qam"):
            cfg = SimConfig(m=m, snr_db=snr, trials=10 ** 6, scheme=scheme,
                            target_ser=1e-3, seed=SEED)
            curves[m, scheme] = run_variable_rate(
                cfg, tables if scheme == "variable-apsk" else None)
    gap2 = (snr_at_bits(curves[2, "variable-qam"], 3.0)
            - snr_at_bits(curves[2, "variable-apsk"], 3.0))
    gap4 = (snr_at_bits(curves[4, "variable-apsk"], 5.0)
            - snr_at_bits(curves[4, "variable-qam"], 5.0))
    mono = all(np.all(np.diff(c.avg_bits) >= -1e-12)
               for c in curves.values())

    # both M=2 curves against their exact average bits
    at3, z = {}, []
    for scheme, tabs in (("variable-apsk", tables), ("variable-qam", None)):
        exact = exact_bits_m2(tabs, 1e-3)
        at3[scheme] = brentq(lambda x: exact(x)[0] - 3.0, snr[0], snr[-1],
                             xtol=1e-6)
        curve = curves[2, scheme]
        mean, second = np.array([exact(x) for x in curve.snr_db]).T
        z.append((curve.avg_bits - mean)
                 / np.sqrt((second - mean ** 2) / curve.trials))
    exact_gap2 = at3["variable-qam"] - at3["variable-apsk"]
    # Seeds 0-7 measure gaps of 1.984-1.995 dB (SD 0.0035 dB) against the
    # exact 1.987 dB, so 0.015 dB is about 4 SD of the seed spread.
    gap_tol = 0.015
    gap_ok = abs(gap2 - exact_gap2) <= gap_tol
    worst_z = float(np.max(np.abs(z)))
    curve_ok = worst_z <= 4.0

    ok = (abs(gap2 - 1.56) <= 0.5 and abs(gap4 - 0.72) <= 0.5 and mono
          and gap_ok and curve_ok)
    report(11, ok,
           f"M=2 gap at 3 bps {gap2:.2f}dB (want 1.56+-0.5); M=4 QAM lead "
           f"at 5 bps {gap4:.2f}dB (want 0.72+-0.5); avg_bits monotone: "
           f"{mono}; (c) M=2 gap {gap2:.3f}dB, exact {exact_gap2:.3f}dB, "
           f"want within {gap_tol}dB [{'ok' if gap_ok else 'BAD'}]; "
           f"(d) M=2 avg bits vs exact, worst |z| {worst_z:.2f}, want <=4 "
           f"[{'ok' if curve_ok else 'BAD'}]")


def test_criterion_12_csit_sweep():
    cfg = SimConfig(m=2, snr_db=(20.0,), trials=2 * 10 ** 5,
                    scheme="proposed-optimal", seed=SEED)
    curve = run_csit_sweep(cfg, table(16),
                           tuple(float(s) for s in range(0, 71, 10)))
    ser = curve.ser
    sigma = np.sqrt(np.maximum(ser * (1 - ser), 1e-12) / curve.trials)
    mono = all(ser[i + 1] <= ser[i] + 2 * sigma[i] for i in range(len(ser) - 1))
    perfect = ser[-1]
    high = ser[:-1][np.asarray(curve.snr_db[:-1]) >= 60.0]
    conv = np.all(np.abs(high - perfect) <= 3 * sigma[-1])
    report(12, mono and bool(conv),
           f"SER {ser[0]:.3e} -> {perfect:.3e}; monotone within 2 sigma: "
           f"{mono}; >=60dB within 3 sigma of perfect-CSIT: {bool(conv)}")


def test_criterion_13_determinism(tmp_path):
    base = [sys.executable, "-m", "ceapsk.cli"]
    # the CLI subprocesses import this package's src, as pytest does
    src = str(Path(ceapsk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    args = ["ser", "--scheme", "adaptive-qam-psk", "--m", "2",
            "--snr", "20:24:2", "--trials", "2e5", "--threads", "1",
            "--out-dir", str(tmp_path / "a")]
    subprocess.run(base + args, check=True, capture_output=True, env=env)
    name = "ser_adaptive-qam-psk_m2"
    manifest = tmp_path / "a" / f"{name}.manifest.json"
    outs = {}
    for threads, sub in (("1", "b"), ("3", "c")):
        subprocess.run(base + ["--config", str(manifest), "ser",
                               "--threads", threads,
                               "--out-dir", str(tmp_path / sub)],
                       check=True, capture_output=True, env=env)
        outs[sub] = (tmp_path / sub / f"{name}.csv").read_bytes()
    orig = (tmp_path / "a" / f"{name}.csv").read_bytes()
    ok = outs["b"] == orig and outs["c"] == orig
    report(13, ok,
           "manifest replay byte-identical with 1 and 3 threads"
           if ok else "replay outputs differ")
