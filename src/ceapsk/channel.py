"""MISO flat-fading channel model and the constant-envelope annulus.

With M transmit antennas under a per-antenna constant-envelope constraint,
the noise-free receive point can be steered anywhere in an annulus whose
outer radius is sqrt(P/M)*||h||_1 and whose inner radius is
sqrt(P/M)*max(2*||h||_inf - ||h||_1, 0).  All adaptation logic downstream
depends on the channel only through (r, R); _channel_blocks draws it.
"""

from __future__ import annotations

import copy

import numpy as np

from .precoder import _BLOCK
from .rng import stream


def annulus_arrays(h: np.ndarray,
                   total_power: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (r, R) for a batch of channels, shape (trials, M).  Norms
    are summed antenna by antenna."""
    mags = np.abs(h)
    l1, top = np.array(mags[..., 0]), np.array(mags[..., 0])
    for col in np.moveaxis(mags, -1, 0)[1:]:
        l1 += col
        np.maximum(top, col, out=top)
    scale = np.sqrt(total_power / mags.shape[-1])
    return scale * np.maximum(2.0 * top - l1, 0.0), scale * l1


def _complex_normal_blocks(rng: np.random.Generator, shape: tuple,
                           replayed: int = 0):
    """(lo, rows lo:lo + _BLOCK of re + 1j im) pairs, re and im standard normals
    of `shape`, all of re drawn before any of im; each block is fresh, to
    scale in place.  The first `replayed` of the two parts (re, then im) are
    replayed block by block from copies of rng's state as each block is
    taken, rng being moved past them now through one reused _BLOCK-row
    buffer, so no chunk-sized array is held.  Of the rest, re is drawn whole
    now and im from rng as each block is taken.  Successive draws from a
    Philox stream continue one sequence, and a draw into `out` equals one of
    its size, so the bits do not depend on `replayed`."""
    t, *rest = shape
    rows = [(lo, min(_BLOCK, t - lo)) for lo in range(0, t, _BLOCK)]
    copies, buf = [], np.empty((min(t, _BLOCK), *rest)) if replayed else None
    for _ in range(replayed):
        copies.append(copy.deepcopy(rng))
        for _, n in rows:
            rng.standard_normal(out=buf[:n])
    re = copies[0] if replayed else rng.standard_normal(shape)
    im = copies[1] if replayed == 2 else rng

    def blocks():
        for lo, n in rows:
            out = (re.standard_normal((n, *rest)) if replayed
                   else re[lo:lo + n]).astype(complex)
            out.imag = im.standard_normal(out.shape)
            yield lo, out
    return blocks()


def _channel_blocks(rng: np.random.Generator, m: int, t: int,
                    path_loss: float):
    """The one channel draw: (lo, block) pairs of t i.i.d. CN(0, beta) channels
    of m antennas from rng, each with the bits of sqrt(beta/2) (re + 1j im)."""
    for lo, h in _complex_normal_blocks(rng, (t, m)):
        h *= np.sqrt(path_loss / 2.0)
        yield lo, h


def sample_rayleigh(num_antennas: int, path_loss: float, rng_seed: int,
                    trials: int = 1) -> np.ndarray:
    """i.i.d. CN(0, beta) gains, shape (trials, M).  Deterministic per seed."""
    if num_antennas < 1:
        raise ValueError("need at least one antenna")
    h = np.empty((trials, num_antennas), dtype=complex)
    for lo, block in _channel_blocks(stream(rng_seed, 0x5241), num_antennas,
                                     trials, path_loss):
        h[lo:lo + _BLOCK] = block
    return h


def ratio_cdf_m2(x):
    """CDF of r/R for M=2 i.i.d. Rayleigh fading: 2x/(1+x^2) on [0,1]."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x > 1):
        raise ValueError("x must lie in [0, 1]")
    out = 2.0 * x / (1.0 + x * x)
    return float(out) if out.ndim == 0 else out

