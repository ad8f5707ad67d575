"""PSK / QAM benchmark constellations, distance metrics and the union bound.

Constellations are normalized so the largest point modulus is 1; a set fits
an annulus with radius ratio q iff its min/max modulus ratio is >= q.

The complementary error function is a port of the Cephes `ndtr` `erfc`
(S. L. Moshier, *Methods and Programs for Mathematical Functions*, 1989;
BSD-licensed as distributed with SciPy).  It gives `scipy.special.erfc`'s
value to a few ulps, as numpy's `exp` may differ by one.  The rate
thresholds invert the bound with the standard library's normal quantile,
`statistics.NormalDist().inv_cdf` (Wichura, Algorithm AS 241, 1988).
"""

from __future__ import annotations

import math

import numpy as np


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
    out = _erfc(np.divide(x, math.sqrt(2.0)))
    out *= 0.5
    return out


def ser_union_bound(n: int, d_min, outer_radius, noise_power):
    """min(1, (N-1) Q(R d_min / (sigma sqrt 2))), elementwise over the
    broadcast of d_min and outer_radius."""
    return _union_bound(n, d_min, outer_radius, noise_power)


def _union_bound(n, d_min, outer_radius, noise_power, bufs=(None,) * 3):
    """ser_union_bound, in bufs = (arg, then _erfc's out and work) if given."""
    if n < 2:
        raise ValueError("need N >= 2")
    arg = np.multiply(outer_radius, d_min, out=bufs[0], dtype=float)
    arg /= np.sqrt(2.0 * noise_power)
    arg /= math.sqrt(2.0)  # Q(x) = erfc(x / sqrt 2) / 2, as qfunc forms it
    out = _erfc(arg, *bufs[1:])
    out *= 0.5
    out *= n - 1
    return min(out, 1.0) if np.ndim(out) == 0 else np.minimum(out, 1, out=out)


def union_bound_threshold(n: int, target_ser: float, noise_power: float) -> float:
    """Least R d_min whose raw union bound (N-1) Q(R d_min / (sigma sqrt 2))
    meets target_ser; 0 when target_ser / (N-1) >= 1/2, and inf when it
    underflows to 0, which no R d_min meets.

    Rate selection deems size N feasible iff R d_min is positive and at
    least this threshold.
    """
    if n < 2:
        raise ValueError("need N >= 2")
    from statistics import NormalDist  # about 3 ms: only rate runs pay it

    tail = target_ser / (n - 1)
    if tail >= 0.5:
        return 0.0
    if tail == 0.0:
        return math.inf
    return math.sqrt(2.0 * noise_power) * -NormalDist().inv_cdf(tail)


def _polevl(x, coef, out=None):
    """Horner's rule, highest power first (Cephes polevl); an array x gets
    one array (`out` if given), updated in place."""
    ans = np.multiply(coef[0], x, out=out)
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


# Cephes ndtr.c erfc coefficients, highest power first, leading 1s written out
_MAXLOG = 7.09782712893383996843E2  # log(DBL_MAX)
# |a| < 1: erf(a) = a T(a^2) / U(a^2)
_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
      2.23200534594684319226E3, 7.00332514112805075473E3,
      5.55923013010394962768E4)
_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2,
      4.59432382970980127987E3, 2.26290000613890934246E4,
      4.92673942608635921086E4)
# 1 <= |a| < 8: erfc(|a|) = exp(-a^2) P(|a|) / Q(|a|)
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
      7.46321056442269912687E0, 4.86371970985681366614E1,
      1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3,
      5.57535335369399327526E2)
_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1,
      3.54937778887819891062E2, 9.75708501743205489753E2,
      1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
# |a| >= 8: the same with R / S
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
      5.01905042251180477414E0, 6.16021097993053585195E0,
      7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0,
      1.20489539808096656605E1, 1.70814450747565897222E1,
      9.60896809063285878198E0, 3.36907645100081516050E0)


def _erfc(a, out=None, work=None):
    """Cephes erfc, elementwise; a float for a scalar a.  Every element takes
    the 1 <= |a| < 8 branch, and the other branches then overwrite theirs.
    If given, out and work (flat, a's size) take the result and _polevl's."""
    a = np.asarray(a, dtype=float)
    flat = a.ravel()
    neg = flat < 0.0
    x = np.abs(flat) if neg.any() else flat
    with np.errstate(all="ignore"):
        out = np.square(x, out=out)
        np.negative(out, out=out)
        np.exp(out, out=out)
        out *= _polevl(x, _P, work)
        out /= _polevl(x, _Q, work)
        far = np.flatnonzero(x >= 8.0)
        xf = x[far]
        z = np.square(xf)
        yf = np.exp(-z) * _polevl(xf, _R) / _polevl(xf, _S)
        yf[z > _MAXLOG] = 0.0  # Cephes's underflow: 0, or 2 for a < 0
        out[far] = yf
        np.subtract(2.0, out, out=out, where=neg)
        near = np.flatnonzero(x < 1.0)  # 1 - erf(a)
        an = flat[near]
        z = np.square(an)
        out[near] = 1.0 - an * _polevl(z, _T) / _polevl(z, _U)
    return float(out[0]) if a.ndim == 0 else out.reshape(a.shape)
