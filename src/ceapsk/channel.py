"""MISO flat-fading channel model and the constant-envelope annulus.

With M transmit antennas under a per-antenna constant-envelope constraint,
the noise-free receive point can be steered anywhere in an annulus whose
outer radius is sqrt(P/M)*||h||_1 and whose inner radius is
sqrt(P/M)*max(2*||h||_inf - ||h||_1, 0).  All adaptation logic downstream
depends on the channel only through (r, R).
"""

from __future__ import annotations

import numpy as np

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


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """re + 1j im from two standard-normal draws of `shape`, real part
    first.  Built in place, with the bits of the sum but none of its
    temporaries; the caller scales it in place."""
    out = np.empty(shape, dtype=complex)
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    return out


def _draw_channel(rng: np.random.Generator, m: int, t: int,
                  path_loss: float) -> np.ndarray:
    """t i.i.d. CN(0, beta) channels of m antennas from rng, shape (t, m),
    with the bits of sqrt(beta / 2) (re + 1j im)."""
    h = _complex_normal(rng, (t, m))
    h *= np.sqrt(path_loss / 2.0)
    return h


def sample_rayleigh(num_antennas: int, path_loss: float, rng_seed: int,
                    trials: int = 1) -> np.ndarray:
    """i.i.d. CN(0, beta) gains, shape (trials, M).  Deterministic per seed."""
    if num_antennas < 1:
        raise ValueError("need at least one antenna")
    return _draw_channel(stream(rng_seed, 0x5241), num_antennas, trials,
                         path_loss)


def ratio_cdf_m2(x):
    """CDF of r/R for M=2 i.i.d. Rayleigh fading: 2x/(1+x^2) on [0,1]."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x > 1):
        raise ValueError("x must lie in [0, 1]")
    out = 2.0 * x / (1.0 + x * x)
    return float(out) if out.ndim == 0 else out

