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

TABLE_ALGO_VERSION = 2  # labels the table JSON; nothing reads it back
MAX_N = 256  # largest N: a table build's time grows ~6-8x per doubling


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


def _f(q, c12x2):
    """Inter-ring distance f(q) = sqrt(q^2 - 2 c12 q + 1), given 2 c12."""
    return np.sqrt(np.maximum(q ** 2 - q * c12x2 + 1.0, 0.0))


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
    f_at_ratio = _f(ratios, 2.0 * c12)
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
    in d_min go to the smaller inner-ring count: from N2 = 1 up, a count
    replaces the running best only where its d_min is strictly larger.
    """
    ratios = np.asarray(ratios, dtype=float)
    d, rho2, track = _solve_n2(n, 1, ratios)
    n2 = np.ones(ratios.shape, dtype=np.intp)
    for k in range(2, n // 2 + 1):
        d_k, rho_k, track_k = _solve_n2(n, k, ratios)
        better = d_k > d
        for best, new in ((d, d_k), (n2, k), (rho2, rho_k), (track, track_k)):
            np.copyto(best, new, where=better)
    return d, n2, rho2, track


def _check_size(n: int) -> None:
    """N must be even and in [2, MAX_N]; a size off the powers of two warns."""
    if n < 2 or n % 2 != 0:
        raise ValueError("N must be even and >= 2")
    if n > MAX_N:
        raise ValueError(f"N must be at most {MAX_N}")
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
# Sorted-edge lookup

# bits >> _CELL_SHIFT numbers 2^8 cells per octave of non-negative doubles
_CELL_SHIFT = 44
_MAX_CELLS = 1 << 12  # the most cells a _CellSearch tabulates


class _CellSearch:
    """np.searchsorted(edges, x, side="right") for fixed sorted edges (no
    NaN among them), by table lookup rather than binary search.

    A non-negative double orders like its bits read as an int64, so
    bits >> 44 numbers cells of 2^8 per octave.  `count` covers a window of
    at most _MAX_CELLS cells that ends at the cell of the largest finite
    edge: count[i] is the number of edges below window cell i, and 0 for
    cell 0, which takes every x below cell 1 (negative x and -0.0
    included); x above the window goes to its last cell.  Then `rounds`
    steps of idx += edges[idx] <= x, the most edges any cell holds, place x
    among its cell's edges; the NaN pad ends every step at len(edges).
    A NaN x maps to len(edges), as in searchsorted.
    """

    def __init__(self, edges):
        edges = np.asarray(edges, dtype=float)
        self.size = edges.size
        finite = edges[np.isfinite(edges)]
        cells = np.maximum(finite.view(np.int64) >> _CELL_SHIFT, 0)
        first, top = (cells.min(), cells.max()) if cells.size else (0, 0)
        self.lo = int(max(first, top + 1 - _MAX_CELLS))
        # window cell i starts at the double whose bits are (lo + i) << 44
        starts = (np.arange(self.lo + 1, top + 1, dtype=np.int64)
                  << _CELL_SHIFT).view(np.float64)
        self.count = np.concatenate((
            [0], np.searchsorted(edges, starts))).astype(np.intp)
        self.rounds = int(np.diff(self.count, append=edges.size).max())
        self.padded = np.append(edges, np.nan)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not self.size:  # a single cell: every x, NaN included, maps to 0
            return np.zeros(x.shape, dtype=np.intp)[()]
        flat = x.reshape(-1)
        cell = flat.view(np.int64) >> _CELL_SHIFT
        cell -= self.lo
        idx = self.count.take(cell, mode="clip")
        for _ in range(self.rounds):
            idx += self.padded.take(idx) <= flat
        np.putmask(idx, np.isnan(flat), self.size)
        # [()] gives a scalar for a scalar x, as searchsorted does
        return idx.reshape(x.shape)[()]


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
    def _arrays(self) -> dict:
        """Per-region columns and the region lookup, built once per table."""
        regs = self.regions
        return {
            # region j + 1 starts at the j-th edge; regions are in ascending lo
            "search": _CellSearch([reg.lo for reg in regs[1:]]),
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
        return self._arrays["search"](ratios)

    def d_min_at(self, ratios) -> np.ndarray:
        """Vectorized optimal MED as a function of r/R."""
        ratios = np.asarray(ratios, dtype=float)
        col = self._arrays
        idx = self.index(ratios)
        if col["const"].all():  # no region uses the formula
            return np.asarray(col["d_min"].take(idx))
        return np.where(col["const"].take(idx), col["d_min"].take(idx),
                        _f(ratios, col["c12x2"].take(idx)))

    def params_at(self, ratios):
        """Vectorized (region index, n2, omega2, rho2) per ratio."""
        ratios = np.asarray(ratios, dtype=float)
        col = self._arrays
        idx = self.index(ratios)
        rho2 = np.where(col["track"].take(idx), ratios, col["rho2"].take(idx))
        return idx, col["n2"].take(idx), col["omega2"].take(idx), rho2

    def to_json(self) -> str:
        return json.dumps({
            "size": self.size,
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

    Each inner-ring count's design is piecewise in q = r/R: a constant K or
    f(q) = sqrt(q^2 - 2 q c12 + 1).  Pieces switch at c12, at rho_bar or at
    a root q = c12 +- sqrt(c12^2 - 1 + K^2) of f = K, K in {sqrt(2 B1),
    sqrt(2 B2), sqrt(2 B2) rho_bar, sqrt(2 - 2 c12)}; two f curves meet only
    at q = 0.  One solve at the midpoints of these candidates, over every
    count, gives each piece's (N2*, rho2 rule); a region starts where that
    pair changes and takes its constants from its first piece.  Regions
    where rho2 tracks r/R carry the formula d_min rule, the rest a constant.
    A region under 1e-12 wide, where two designs tie to the ulp, is dropped:
    the region before it runs on (the one after it, from q = 0).
    """
    _check_size(n)
    c12s = [math.cos(solve_p21(n, n2)) for n2 in range(1, n // 2 + 1)]
    cuts, ks = [0.0, 1.0, *c12s], []
    for n2, c12 in enumerate(c12s, start=1):
        b1, b2 = _b_coeff(n - n2), _b_coeff(n2)
        ks += [math.sqrt(2.0 * b) for b in (b1, b2) if b is not None]
        ks.append(math.sqrt(max(2.0 - 2.0 * c12, 0.0)))
        if b2 is not None:
            cuts.append(_rho_bar(b2, c12))
            ks.append(math.sqrt(2.0 * b2) * cuts[-1])
    c = np.array(c12s)[:, None]
    # where f never meets K this gives the root c12, already a candidate
    half = np.sqrt(np.maximum(c * c - 1.0 + np.array(ks) ** 2, 0.0))
    cand = np.sort(np.concatenate((cuts, np.ravel([c - half, c + half]))))
    cand = cand[(cand >= 0.0) & (cand <= 1.0) & (np.diff(cand, prepend=-1) > 0)]
    mids = 0.5 * (cand[:-1] + cand[1:])
    d, n2, rho, track = _solve_grid(n, mids)
    first = np.flatnonzero(np.diff(2 * n2 + track, prepend=-1))  # new (n2, track)
    # a float tie between two designs can start a sliver region: drop it
    first = first[np.diff(cand[np.append(first, mids.size)]) >= 1e-12]
    bounds = [0.0, *cand[np.append(first[1:], mids.size)].tolist()]
    regions = []
    for lo_j, hi_j, n2_j, tracking, d_j, rho_j in zip(
            bounds, bounds[1:], n2[first].tolist(), track[first].tolist(),
            d[first].tolist(), rho[first].tolist()):
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

