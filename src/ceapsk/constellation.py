"""PSK / QAM benchmark constellations, distance metrics and the union bound.

Constellations are normalized so the largest point modulus is 1; a set fits
an annulus with radius ratio q iff its min/max modulus ratio is >= q.
"""

from __future__ import annotations

import math

import numpy as np


def _special():
    """scipy.special, imported on first use: it is most of the package's
    import time, and only the union bound and the rate thresholds need it."""
    import scipy.special
    return scipy.special


def med(points: np.ndarray) -> float:
    """Exhaustive O(N^2) pairwise minimum distance."""
    pts = np.asarray(points)
    n = pts.size
    if n < 2:
        raise ValueError("need at least two points")
    diff = np.abs(pts[:, None] - pts[None, :])
    diff[np.diag_indices(n)] = np.inf
    return float(diff.min())


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
    return 0.5 * _special().erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


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
    return math.sqrt(2.0 * noise_power) * math.sqrt(2.0) * _special().erfcinv(
        2.0 * tail)

