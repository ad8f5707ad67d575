"""MED-maximal two-ring APSK design under an annulus constraint.

For a given constellation size N and annulus radius ratio q = r/R, the
design problem splits per inner-ring count N2 into a phase-offset
subproblem (solved in closed form: half the step of the inter-ring angle
lattice) and an inner-radius subproblem (piecewise analysis of the three
distance terms).  The solution depends on the channel only through q, so
the whole design collapses to a small table of regions over q in [0, 1]
that can be built offline.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TABLE_ALGO_VERSION = 1  # labels the table JSON; nothing reads it back
# r/R grid on which every region table finds its boundaries before bisecting
# them; it resolves every region of the sizes N <= 64 that the engines use
GRID_STEP = 1e-4


# ---------------------------------------------------------------------------
# Phase offset subproblem


def solve_p21(n: int, n2: int) -> float:
    """The inner-ring offset w* that minimizes the worst inter-ring cosine.

    Every inter-ring angle difference 2 pi (k/N2 - m/N1) is a multiple of
    2 pi gcd(N1, N2) / (N1 N2) = 2 pi / lcm(N1, N2), and every multiple
    occurs.  An offset w shifts that lattice, so the worst cosine is
    cos(distance from w to the lattice), least at half a step:
    w* = pi / lcm(N1, N2) and C* = cos(w*).
    """
    if not (1 <= n2 <= n - 1):
        raise ValueError(f"n2 must be in [1, {n - 1}]")
    n1 = n - n2
    return np.pi * math.gcd(n1, n2) / (n1 * n2)


# ---------------------------------------------------------------------------
# Inner radius subproblem and the full design


@dataclass(frozen=True)
class DesignResult:
    """The outer ring holds N - n2 points at radius 1 and offset 0, the
    inner ring n2 points at radius rho2 and offset omega2."""

    d_min: float
    n2: int
    omega2: float
    rho2: float


def _b_coeff(count: int):
    """1 - cos(2 pi / count); None marks the absent single-point constraint."""
    if count == 1:
        return None
    return 1.0 - math.cos(2.0 * np.pi / count)


def _rho_bar(b2: float, c12: float) -> float:
    """Left crossing of rho*sqrt(2 B2) with the inter-ring distance curve."""
    if abs(b2 - 0.5) < 1e-15:
        return 1.0 / (2.0 * c12)
    disc = c12 * c12 + 2.0 * b2 - 1.0
    return (c12 - math.sqrt(disc)) / (1.0 - 2.0 * b2)


def _solve_n2(n: int, n2: int, ratios: np.ndarray):
    """Best (d_min, rho2, tracking) arrays over a ratio grid for a fixed
    inner-ring count.

    Where C* > r/R the region-I local optimum on rho2 in [r/R, C*] (case i:
    rho_bar, ii and iv: the outer-ring crossing, iii: rho2 = r/R) competes
    with rho2 = 1; elsewhere rho2 = 1.  `tracking` flags case iii winning.
    """
    c12 = math.cos(solve_p21(n, n2))
    b1, b2 = _b_coeff(n - n2), _b_coeff(n2)
    d1 = math.sqrt(2.0 * b1) if b1 is not None else np.inf
    d2_at1 = math.sqrt(2.0 * b2) if b2 is not None else np.inf
    d_at1 = min(d1, d2_at1, math.sqrt(max(2.0 - 2.0 * c12, 0.0)))
    if b1 is None:  # single-point outer ring: n = 2, where c12 = -1
        return (np.full(ratios.shape, d_at1), np.ones(ratios.shape),
                np.zeros(ratios.shape, dtype=bool))
    f_at_ratio = np.sqrt(np.maximum(ratios ** 2 + 1.0 - 2.0 * ratios * c12, 0.0))
    rho_cross = c12 - math.sqrt(max(c12 * c12 - 1.0 + 2.0 * b1, 0.0))
    if b2 is not None:
        rho_bar = _rho_bar(b2, c12)
        in_bar = (ratios <= rho_bar) & (rho_bar <= c12)
        case_i = in_bar & (rho_bar <= math.sqrt(b1 / b2))
        case_ii = in_bar & ~case_i
    else:
        case_i = np.zeros(ratios.shape, dtype=bool)
        case_ii = case_i
        rho_bar = 0.0
    case_iii = ~(case_i | case_ii) & (d1 >= f_at_ratio)
    d_loc = np.where(case_i, math.sqrt(2.0 * b2) * rho_bar if b2 is not None else 0.0,
                     np.where(case_iii, f_at_ratio, d1))
    rho_loc = np.where(case_i, rho_bar,
                       np.where(case_iii, ratios, rho_cross))
    use_loc = (c12 > ratios) & (d_loc >= d_at1)
    return (np.where(use_loc, d_loc, d_at1), np.where(use_loc, rho_loc, 1.0),
            use_loc & case_iii)


def _solve_grid(n: int, ratios: np.ndarray):
    """Vectorized design over a ratio grid.

    Returns (d_min, n2, rho2, tracking) arrays; `tracking` flags grid
    points where the optimum pins the inner ring to the annulus boundary
    (rho2 = r/R), which is what distinguishes formula-type regions.  Ties
    in d_min go to the smaller inner-ring count.
    """
    ratios = np.asarray(ratios, dtype=float)
    d_all, rho_all, track_all = (np.array(rows) for rows in zip(*(
        _solve_n2(n, n2, ratios)
        for n2 in range(1, n // 2 + 1))))
    best = np.argmax(d_all, axis=0)  # first max -> smaller n2 on ties
    cols = np.arange(ratios.size)
    return (d_all[best, cols], best + 1, rho_all[best, cols],
            track_all[best, cols])


def _check_size(n: int) -> None:
    """N must be even and at least 2; a size off the powers of two warns."""
    if n < 2 or n % 2 != 0:
        raise ValueError("N must be even and >= 2")
    if n & (n - 1) != 0:
        warnings.warn(f"N={n} is not a power of two; the design is "
                      "best-effort", stacklevel=3)


def solve_p2(n: int, ratio: float) -> DesignResult:
    """Optimal feasible two-ring N-APSK for annulus ratio r/R.

    Searches inner-ring counts 1 .. N/2 (more inner than outer points is
    never better); ties prefer the smaller count.
    """
    _check_size(n)
    if not (0.0 <= ratio <= 1.0):
        raise ValueError("ratio must lie in [0, 1]")
    d, n2, rho2, _ = _solve_grid(n, np.array([ratio]))
    d, n2 = float(d[0]), int(n2[0])
    rho2 = max(float(rho2[0]), ratio)  # feasibility: inner ring never below r/R
    return DesignResult(d_min=d, n2=n2, omega2=solve_p21(n, n2), rho2=rho2)


# ---------------------------------------------------------------------------
# Region tables


@dataclass(frozen=True)
class Region:
    lo: float
    hi: float
    n2: int
    omega2: float
    c12: float
    rho2_rule: str          # "constant" or "track_ratio"
    rho2: float | None      # constant value, None when tracking r/R
    d_min_rule: str         # "constant" or "formula"
    d_min: float | None     # constant value, None for the formula rule


@dataclass(frozen=True)
class RegionTable:
    size: int
    regions: tuple[Region, ...]

    @cached_property
    def _arrays(self) -> dict[str, np.ndarray]:
        """Per-region columns, built once per table."""
        regs = self.regions
        return {
            # region j + 1 starts at upper[j]; regions are in ascending lo
            "upper": np.array([reg.lo for reg in regs[1:]]),
            "n2": np.array([reg.n2 for reg in regs]),
            "omega2": np.array([reg.omega2 for reg in regs]),
            "rho2": np.array([np.nan if reg.rho2 is None else reg.rho2
                              for reg in regs]),
            "track": np.array([reg.rho2_rule == "track_ratio" for reg in regs]),
            "c12x2": np.array([2.0 * reg.c12 for reg in regs]),
            "d_min": np.array([np.nan if reg.d_min is None else reg.d_min
                               for reg in regs]),
            "const": np.array([reg.d_min_rule == "constant" for reg in regs]),
        }

    def index(self, ratios) -> np.ndarray:
        """Region index per ratio: the last region whose lo <= ratio (the
        first region for a ratio below every lo)."""
        upper = self._arrays["upper"]
        if not upper.size:  # one region holds every ratio
            # [()] gives a scalar for a scalar ratio, as searchsorted does
            return np.zeros(np.shape(ratios), dtype=np.intp)[()]
        return np.searchsorted(upper, ratios, side="right")

    def d_min_at(self, ratios, idx=None) -> np.ndarray:
        """Vectorized optimal MED as a function of r/R.  idx, when given,
        is self.index(ratios)."""
        ratios = np.asarray(ratios, dtype=float)
        col = self._arrays
        idx = self.index(ratios) if idx is None else idx
        if col["const"].all():  # no region uses the formula
            return np.asarray(col["d_min"][idx])
        # 2 ratio c12 == ratio (2 c12) exactly: doubling is exact
        formula = np.sqrt(np.maximum(
            ratios ** 2 - ratios * col["c12x2"][idx] + 1.0, 0.0))
        return np.where(col["const"][idx], col["d_min"][idx], formula)

    def params_at(self, ratios, idx=None):
        """Vectorized (region index, n2, omega2, rho2) per ratio.  idx, when
        given, is self.index(ratios)."""
        ratios = np.asarray(ratios, dtype=float)
        col = self._arrays
        idx = self.index(ratios) if idx is None else idx
        rho2 = np.where(col["track"][idx], ratios, col["rho2"][idx])
        return idx, col["n2"][idx], col["omega2"][idx], rho2

    def to_json(self) -> str:
        return json.dumps({
            "size": self.size,
            "grid_step": GRID_STEP,
            "algorithm_version": TABLE_ALGO_VERSION,
            "regions": [{
                "lo": reg.lo, "hi": reg.hi, "n2": reg.n2,
                "omega2": reg.omega2, "c12": reg.c12,
                "rho2_rule": reg.rho2_rule, "rho2": reg.rho2,
                "d_min_rule": reg.d_min_rule, "d_min": reg.d_min,
            } for reg in self.regions],
        }, indent=2)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["region", "ratio_lo", "ratio_hi", "rho2", "N2",
                        "omega2_over_pi", "dmin_rule", "dmin"])
            for i, reg in enumerate(self.regions, start=1):
                rho = "r/R" if reg.rho2_rule == "track_ratio" else f"{reg.rho2:.6f}"
                dmin = "" if reg.d_min is None else f"{reg.d_min:.6f}"
                w.writerow([i, f"{reg.lo:.6f}", f"{reg.hi:.6f}", rho, reg.n2,
                            f"{reg.omega2 / np.pi:.6f}", reg.d_min_rule, dmin])


def build_region_table(n: int) -> RegionTable:
    """Partition r/R in [0, 1] into regions of constant design structure.

    Points of the GRID_STEP grid sharing (N2*, rho2 rule) are merged; all
    boundaries are then bisected together, one array of midpoints per step,
    each to 1e-6.
    Regions where rho2 tracks r/R carry the formula d_min rule; all others
    carry a constant d_min.
    """
    _check_size(n)
    ratios = np.arange(0.0, 1.0 + GRID_STEP / 2, GRID_STEP)
    ratios[-1] = 1.0
    _, n2, _, track = _solve_grid(n, ratios)
    # boundary j lies between grid points edge[j] and edge[j] + 1
    edge = np.flatnonzero((n2[1:] != n2[:-1]) | (track[1:] != track[:-1]))
    lo, hi = ratios[edge], ratios[edge + 1]
    n2_lo, track_lo = n2[edge], track[edge]
    # bisect every boundary at once; each stops once it is within 1e-6
    while (live := hi - lo > 1e-6).any():
        mid = 0.5 * (lo + hi)
        _, n2_mid, _, track_mid = _solve_grid(n, mid)
        same = (n2_mid == n2_lo) & (track_mid == track_lo)
        lo = np.where(live & same, mid, lo)
        hi = np.where(live & ~same, mid, hi)
    bounds = np.concatenate(([0.0], 0.5 * (lo + hi), [1.0]))
    # probe each region just inside its lower end
    probe = np.minimum(bounds[:-1] + GRID_STEP, 0.5 * (bounds[:-1] + bounds[1:]))
    d_probe, _, rho_probe, _ = _solve_grid(n, probe)
    first = np.concatenate(([0], edge + 1))  # first grid point of each run
    bounds = bounds.tolist()  # Python floats, as to_json writes them
    regions = []
    for lo_j, hi_j, n2_j, tracking, d_j, rho_j in zip(
            bounds, bounds[1:], n2[first].tolist(), track[first].tolist(),
            d_probe.tolist(), rho_probe.tolist()):
        omega2 = solve_p21(n, n2_j)
        rules = (("track_ratio", None, "formula", None) if tracking else
                 ("constant", rho_j, "constant", d_j))
        regions.append(Region(lo_j, hi_j, n2_j, omega2, math.cos(omega2),
                              *rules))
    return RegionTable(size=n, regions=tuple(regions))


def build_suboptimal_table(optimal: RegionTable) -> RegionTable:
    """Two-region memory-saving variant: region 1 kept, rest uses the last
    region's constellation (always feasible over the remaining range)."""
    regs = optimal.regions
    if len(regs) <= 1:
        return optimal
    first = regs[0]
    last = regs[-1]
    if last.rho2_rule != "constant":
        raise ValueError("last region must carry a constant design")
    rest = Region(lo=first.hi, hi=1.0, n2=last.n2, omega2=last.omega2,
                  c12=last.c12, rho2_rule="constant", rho2=last.rho2,
                  d_min_rule="constant", d_min=last.d_min)
    return RegionTable(size=optimal.size, regions=(first, rest))

