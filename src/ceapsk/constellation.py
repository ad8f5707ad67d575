"""APSK / PSK / rectangular-QAM constellations and distance metrics.

Constellations are normalized so the largest point modulus is 1; a set fits
an annulus with radius ratio q iff its min/max modulus ratio is >= q.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, erfcinv


@dataclass(frozen=True)
class Ring:
    count: int
    radius: float
    offset: float

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("ring needs at least one point")
        if not (0.0 <= self.radius <= 1.0):
            raise ValueError("ring radius must lie in [0, 1]")


@dataclass(frozen=True)
class ApskConstellation:
    """Concentric-ring constellation; ring 1 is the unit-radius reference.

    Radii are non-increasing with ring index.  Equal radii are allowed so
    that N-PSK can be represented as a two-ring set (e.g. 8+8 points at
    radius 1 with a pi/8 offset is exactly 16-PSK).
    """

    rings: tuple[Ring, ...]

    def __post_init__(self):
        rings = tuple(self.rings)
        if not rings:
            raise ValueError("need at least one ring")
        if rings[0].radius != 1.0 or rings[0].offset != 0.0:
            raise ValueError("ring 1 must have radius 1 and offset 0")
        radii = [rg.radius for rg in rings]
        if any(b > a for a, b in zip(radii, radii[1:])):
            raise ValueError("ring radii must be non-increasing")
        object.__setattr__(self, "rings", rings)

    @property
    def size(self) -> int:
        return sum(rg.count for rg in self.rings)

    def to_json(self) -> str:
        return json.dumps({"rings": [{"count": rg.count, "radius": rg.radius,
                                      "offset": rg.offset} for rg in self.rings]})

    @classmethod
    def from_json(cls, text: str) -> "ApskConstellation":
        data = json.loads(text)
        return cls(tuple(Ring(r["count"], r["radius"], r["offset"])
                         for r in data["rings"]))


def apsk_points(c: ApskConstellation) -> np.ndarray:
    """Point set {rho_l * exp(j(2 pi k / N_l + omega_l))}, outer ring first."""
    parts = []
    for rg in c.rings:
        k = np.arange(rg.count)
        parts.append(rg.radius * np.exp(1j * (2.0 * np.pi * k / rg.count + rg.offset)))
    return np.concatenate(parts)


@dataclass(frozen=True)
class MedReport:
    med: float
    argmin_pair: tuple[int, int]


def med(points: np.ndarray) -> MedReport:
    """Exhaustive O(N^2) pairwise minimum distance."""
    pts = np.asarray(points)
    n = pts.size
    if n < 2:
        raise ValueError("need at least two points")
    diff = np.abs(pts[:, None] - pts[None, :])
    diff[np.diag_indices(n)] = np.inf
    idx = np.unravel_index(np.argmin(diff), diff.shape)
    return MedReport(med=float(diff[idx]), argmin_pair=(int(idx[0]), int(idx[1])))


def modulus_ratio(points: np.ndarray) -> float:
    mags = np.abs(np.asarray(points))
    return float(mags.min() / mags.max())


def qam_family(n: int) -> np.ndarray:
    """Benchmark constellations, normalized to max modulus 1.

    N=2 BPSK, N=4 QPSK, N=16/64 square odd-integer grids, N=32 cross (6x6
    grid minus corners).  N=8 is the classic textbook layout with an inner
    square (+-1, +-1) and four axis points at radius 1 + sqrt(3); all pairs
    of neighbors are then exactly distance 2 apart (0.7321 normalized), and
    the min/max modulus ratio is sqrt(2)/(1 + sqrt(3)) = 0.5176.
    """
    if n == 2:
        pts = np.array([1.0 + 0j, -1.0 + 0j])
    elif n == 4:
        pts = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j], dtype=complex)
    elif n == 8:
        a = 1.0 + math.sqrt(3.0)
        pts = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j,
                        a, 1j * a, -a, -1j * a], dtype=complex)
    elif n in (16, 64):
        k = int(math.isqrt(n))
        lv = np.arange(-(k - 1), k, 2)
        pts = (lv[:, None] + 1j * lv[None, :]).ravel()
    elif n == 32:
        lv = np.arange(-5, 6, 2)
        pts = (lv[:, None] + 1j * lv[None, :]).ravel()
        pts = pts[np.abs(pts.real * pts.imag) != 25]  # drop the four corners
    else:
        raise ValueError(f"unsupported QAM size {n}; pick one of 2,4,8,16,32,64")
    return pts / np.abs(pts).max()


def qfunc(x):
    """Standard normal tail probability via the complementary error function."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


def ser_union_bound(n: int, d_min, outer_radius, noise_power):
    """min(1, (N-1) Q(R d_min / (sigma sqrt 2)))."""
    if n < 2:
        raise ValueError("need N >= 2")
    arg = np.asarray(outer_radius) * np.asarray(d_min) / np.sqrt(2.0 * noise_power)
    out = np.asarray(np.minimum((n - 1) * qfunc(arg), 1.0))
    return float(out) if out.ndim == 0 else out


def union_bound_threshold(n: int, target_ser: float, noise_power: float) -> float:
    """Least R d_min whose raw union bound (N-1) Q(R d_min / (sigma sqrt 2))
    meets target_ser; 0 when target_ser / (N-1) >= 1/2.

    Rate selection deems size N feasible iff R d_min is positive and at
    least this threshold.
    """
    tail = target_ser / (n - 1)
    if tail >= 0.5:
        return 0.0
    return math.sqrt(2.0 * noise_power) * math.sqrt(2.0) * erfcinv(2.0 * tail)

