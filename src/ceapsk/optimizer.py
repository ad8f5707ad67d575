"""MED-maximal two-ring APSK design under an annulus constraint.

For a given constellation size N and annulus radius ratio q = r/R, the
design problem splits per inner-ring count N2 into a phase-offset
subproblem (solved exactly by a gap search over the distinct inter-ring
angle differences) and an inner-radius subproblem (piecewise analysis of
the three distance terms).  The solution depends on the channel only
through q, so the whole design collapses to a small table of regions over
q in [0, 1] that can be built offline.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import annulus_arrays, sample_rayleigh
from .constellation import ApskConstellation, Ring

TABLE_ALGO_VERSION = 1


# ---------------------------------------------------------------------------
# Phase offset subproblem


@dataclass(frozen=True)
class PhaseOffsetSolution:
    omega2_star: float
    c12_star: float
    breakpoints: tuple[float, ...]
    k_star: int


def solve_p21(n: int, n2: int) -> PhaseOffsetSolution:
    """Minimize the worst inter-ring cosine over the inner-ring offset.

    Candidate angles are the distinct values of 2 pi (n/N2 - m/N1) falling
    in (-2 pi/N1, 0], plus -2 pi/N1 itself; the optimum offset is the
    midpoint of the widest gap between consecutive candidates.  Ties are
    broken toward the first (widest-equal) gap, i.e. the smallest offset.
    """
    if not (1 <= n2 <= n - 1):
        raise ValueError(f"n2 must be in [1, {n - 1}]")
    n1 = n - n2
    # integer grid: angle = 2 pi t / (n1 * n2), t = n*n1 - m*n2
    ts = {-n2}
    for m in range(n1):
        for k in range(n2):
            t = k * n1 - m * n2
            if -n2 < t <= 0:
                ts.add(t)
    xs = sorted(ts, reverse=True)
    x = [2.0 * np.pi * t / (n1 * n2) for t in xs]
    # gaps compared on the exact integer grid so equal gaps tie cleanly
    gaps = [xs[k + 1] - xs[k] for k in range(len(xs) - 1)]
    k_star = int(np.argmin(gaps))
    omega2 = -(x[k_star] + x[k_star + 1]) / 2.0
    c12 = math.cos((x[k_star] - x[k_star + 1]) / 2.0)
    return PhaseOffsetSolution(omega2_star=omega2, c12_star=c12,
                               breakpoints=tuple(x), k_star=k_star)


# ---------------------------------------------------------------------------
# Inner radius subproblem and the full design


@dataclass(frozen=True)
class DesignResult:
    constellation: ApskConstellation
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


def _offset_cache(n: int) -> list[PhaseOffsetSolution]:
    """Phase-offset solutions for n2 = 1 .. n//2 (index n2 - 1)."""
    return [solve_p21(n, n2) for n2 in range(1, n // 2 + 1)]


def _solve_n2(n: int, n2: int, ratios: np.ndarray, pos: PhaseOffsetSolution):
    """Best (d_min, rho2, tracking) arrays over a ratio grid for a fixed
    inner-ring count.

    Where C* > r/R the region-I local optimum on rho2 in [r/R, C*] (case i:
    rho_bar, ii and iv: the outer-ring crossing, iii: rho2 = r/R) competes
    with rho2 = 1; elsewhere rho2 = 1.  `tracking` flags case iii winning.
    """
    c12 = pos.c12_star
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


def _solve_grid(n: int, ratios: np.ndarray,
                offsets: list[PhaseOffsetSolution]):
    """Vectorized design over a ratio grid.

    Returns (d_min, n2, rho2, tracking) arrays; `tracking` flags grid
    points where the optimum pins the inner ring to the annulus boundary
    (rho2 = r/R), which is what distinguishes formula-type regions.  Ties
    in d_min go to the smaller inner-ring count.
    """
    ratios = np.asarray(ratios, dtype=float)
    d_all, rho_all, track_all = (np.array(rows) for rows in zip(*(
        _solve_n2(n, n2, ratios, offsets[n2 - 1])
        for n2 in range(1, n // 2 + 1))))
    best = np.argmax(d_all, axis=0)  # first max -> smaller n2 on ties
    cols = np.arange(ratios.size)
    return (d_all[best, cols], best + 1, rho_all[best, cols],
            track_all[best, cols])


def solve_p2(n: int, ratio: float) -> DesignResult:
    """Optimal feasible two-ring N-APSK for annulus ratio r/R.

    Searches inner-ring counts 1 .. N/2 (more inner than outer points is
    never better); ties prefer the smaller count.
    """
    if n < 2:
        raise ValueError("need N >= 2")
    if not (0.0 <= ratio <= 1.0):
        raise ValueError("ratio must lie in [0, 1]")
    if n % 2 != 0:
        raise ValueError("N must be even")
    if n & (n - 1) != 0:
        warnings.warn(f"N={n} is not a power of two; design is best-effort",
                      stacklevel=2)
    offsets = _offset_cache(n)
    d, n2, rho2, _ = _solve_grid(n, np.array([ratio]), offsets)
    d, n2 = float(d[0]), int(n2[0])
    rho2 = max(float(rho2[0]), ratio)  # feasibility: inner ring never below r/R
    omega2 = offsets[n2 - 1].omega2_star
    cons = ApskConstellation((Ring(n - n2, 1.0, 0.0),
                              Ring(n2, rho2, omega2 % (2.0 * np.pi))))
    return DesignResult(constellation=cons, d_min=d, n2=n2, omega2=omega2,
                        rho2=rho2)


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
    grid_step: float

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
        return np.searchsorted(self._arrays["upper"], ratios, side="right")

    def d_min_at(self, ratios) -> np.ndarray:
        """Vectorized optimal MED as a function of r/R."""
        ratios = np.asarray(ratios, dtype=float)
        col, idx = self._arrays, self.index(ratios)
        # 2 ratio c12 == ratio (2 c12) exactly: doubling is exact
        formula = np.sqrt(np.maximum(
            ratios ** 2 - ratios * col["c12x2"][idx] + 1.0, 0.0))
        return np.where(col["const"][idx], col["d_min"][idx], formula)

    def params_at(self, ratios):
        """Vectorized (region index, n2, omega2, rho2) per ratio."""
        ratios = np.asarray(ratios, dtype=float)
        col, idx = self._arrays, self.index(ratios)
        rho2 = np.where(col["track"][idx], ratios, col["rho2"][idx])
        return idx, col["n2"][idx], col["omega2"][idx], rho2

    def to_json(self) -> str:
        return json.dumps({
            "size": self.size,
            "grid_step": self.grid_step,
            "algorithm_version": TABLE_ALGO_VERSION,
            "regions": [{
                "lo": reg.lo, "hi": reg.hi, "n2": reg.n2,
                "omega2": reg.omega2, "c12": reg.c12,
                "rho2_rule": reg.rho2_rule, "rho2": reg.rho2,
                "d_min_rule": reg.d_min_rule, "d_min": reg.d_min,
            } for reg in self.regions],
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RegionTable":
        data = json.loads(text)
        regs = tuple(Region(**{k: r[k] for k in (
            "lo", "hi", "n2", "omega2", "c12", "rho2_rule", "rho2",
            "d_min_rule", "d_min")}) for r in data["regions"])
        return cls(size=data["size"], regions=regs, grid_step=data["grid_step"])

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


def build_region_table(n: int, grid_step: float = 1e-4) -> RegionTable:
    """Partition r/R in [0, 1] into regions of constant design structure.

    Grid points sharing (N2*, rho2 rule) are merged; each boundary is then
    refined by bisection to 1e-6.  Regions where rho2 tracks r/R carry the
    formula d_min rule; all others carry a constant d_min.
    """
    if grid_step > 1e-4:
        raise ValueError("grid_step must be <= 1e-4")
    if n < 2 or n % 2 != 0:
        raise ValueError("N must be even and >= 2")
    if n & (n - 1) != 0:
        warnings.warn(f"N={n} is not a power of two; table is best-effort",
                      stacklevel=2)
    offsets = _offset_cache(n)
    ratios = np.arange(0.0, 1.0 + grid_step / 2, grid_step)
    ratios[-1] = 1.0
    d, n2, rho, track = _solve_grid(n, ratios, offsets)
    keys = list(zip(n2.tolist(), track.tolist()))
    # maximal runs of identical structure
    bounds = [0.0]
    run_keys = [keys[0]]
    for i in range(1, len(keys)):
        if keys[i] != keys[i - 1]:
            lo, hi = ratios[i - 1], ratios[i]
            ka = keys[i - 1]
            while hi - lo > 1e-6:
                mid = 0.5 * (lo + hi)
                _, n2_mid, _, track_mid = _solve_grid(n, np.array([mid]), offsets)
                if (int(n2_mid[0]), bool(track_mid[0])) == ka:
                    lo = mid
                else:
                    hi = mid
            bounds.append(0.5 * (lo + hi))
            run_keys.append(keys[i])
    bounds.append(1.0)
    regions = []
    for j, key in enumerate(run_keys):
        lo, hi = bounds[j], bounds[j + 1]
        n2_j, tracking = key
        pos = offsets[n2_j - 1]
        probe = min(lo + grid_step, 0.5 * (lo + hi))
        dj, _, rhoj, _ = _solve_grid(n, np.array([probe]), offsets)
        rules = (("track_ratio", None, "formula", None) if tracking else
                 ("constant", float(rhoj[0]), "constant", float(dj[0])))
        regions.append(Region(lo, hi, n2_j, pos.omega2_star % (2 * np.pi),
                              pos.c12_star, *rules))
    return RegionTable(size=n, regions=tuple(regions), grid_step=grid_step)


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
    return RegionTable(size=optimal.size,
                       regions=(first, rest), grid_step=optimal.grid_step)


def region_probabilities(table: RegionTable, num_antennas: int, trials: int,
                         rng_seed: int) -> np.ndarray:
    """Empirical probability of r/R landing in each region (i.i.d. Rayleigh)."""
    if trials < 10 ** 5:
        raise ValueError("need at least 1e5 trials")
    h = sample_rayleigh(num_antennas, 1.0, rng_seed, trials=trials)
    inner, outer = annulus_arrays(h, 1.0)
    ratio = inner / outer
    counts = np.bincount(table.index(ratio), minlength=len(table.regions))
    return counts / trials
