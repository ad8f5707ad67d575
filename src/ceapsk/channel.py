"""MISO flat-fading channel model and the constant-envelope annulus.

With M transmit antennas under a per-antenna constant-envelope constraint,
the noise-free receive point can be steered anywhere in an annulus whose
outer radius is sqrt(P/M)*||h||_1 and whose inner radius is
sqrt(P/M)*max(2*||h||_inf - ||h||_1, 0).  All adaptation logic downstream
depends on the channel only through (r, R).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .rng import stream


@dataclass(frozen=True)
class ChannelRealization:
    """Complex per-antenna gains of one flat-fading MISO channel."""

    gains: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gains, dtype=complex)
        if g.ndim != 1 or g.size < 1:
            raise ValueError("gains must be a non-empty 1-D complex vector")
        object.__setattr__(self, "gains", g)

    @property
    def num_antennas(self) -> int:
        return self.gains.size


@dataclass(frozen=True)
class Annulus:
    """Reachable receive region: inner radius r, outer radius R."""

    inner: float
    outer: float
    degenerate: bool = False

    def __post_init__(self):
        if not (0.0 <= self.inner <= self.outer or self.degenerate):
            raise ValueError("need 0 <= inner <= outer")

    @property
    def ratio(self) -> float:
        if self.outer == 0.0:
            return 0.0
        return self.inner / self.outer


@dataclass(frozen=True)
class LinkBudget:
    """Total power P, path loss beta and noise power sigma^2, all linear."""

    total_power: float
    path_loss: float
    noise_power: float

    def __post_init__(self):
        if min(self.total_power, self.path_loss, self.noise_power) <= 0:
            raise ValueError("link budget quantities must be positive")

    @property
    def snr(self) -> float:
        return self.total_power * self.path_loss / self.noise_power


@dataclass(frozen=True)
class CsitModel:
    """MMSE channel estimation: per-element error variance beta/(1+SNR_tr)."""

    training_snr: float
    path_loss: float

    def __post_init__(self):
        if self.training_snr < 0 or self.path_loss <= 0:
            raise ValueError("training_snr must be >= 0 and path_loss > 0")

    @property
    def error_variance(self) -> float:
        return self.path_loss / (1.0 + self.training_snr)


def compute_annulus(h: ChannelRealization, total_power: float) -> Annulus:
    """Annulus of reachable noise-free receive points for channel h at power P."""
    if total_power <= 0:
        raise ValueError("total_power must be positive")
    mags = np.abs(h.gains)
    scale = np.sqrt(total_power / h.num_antennas)
    outer = scale * mags.sum()
    inner = scale * max(2.0 * mags.max() - mags.sum(), 0.0)
    return Annulus(inner=float(inner), outer=float(outer), degenerate=outer == 0.0)


def annulus_arrays(h: np.ndarray, total_power: float, *,
                   mags: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (r, R) for a batch of channels, shape (trials, M).

    mags, when given, is |h|.  Norms are summed antenna by antenna.
    """
    mags = np.abs(h) if mags is None else mags
    l1, top = np.array(mags[..., 0]), np.array(mags[..., 0])
    for col in np.moveaxis(mags, -1, 0)[1:]:
        l1 += col
        np.maximum(top, col, out=top)
    scale = np.sqrt(total_power / mags.shape[-1])
    return scale * np.maximum(2.0 * top - l1, 0.0), scale * l1


def sample_rayleigh(num_antennas: int, path_loss: float, rng_seed: int,
                    trials: int = 1) -> np.ndarray:
    """i.i.d. CN(0, beta) gains, shape (trials, M).  Deterministic per seed."""
    if num_antennas < 1:
        raise ValueError("need at least one antenna")
    rng = stream(rng_seed, 0x5241)
    re = rng.standard_normal((trials, num_antennas))
    im = rng.standard_normal((trials, num_antennas))
    return np.sqrt(path_loss / 2.0) * (re + 1j * im)


def ratio_cdf_m2(x):
    """CDF of r/R for M=2 i.i.d. Rayleigh fading: 2x/(1+x^2) on [0,1]."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x > 1):
        raise ValueError("x must lie in [0, 1]")
    out = 2.0 * x / (1.0 + x * x)
    return float(out) if out.ndim == 0 else out


def mmse_estimate(h: np.ndarray, csit: CsitModel, rng_seed: int) -> np.ndarray:
    """Transmitter-side channel estimate h_hat = h - dh, dh ~ CN(0, err var)."""
    h = np.atleast_2d(np.asarray(h, dtype=complex))
    rng = stream(rng_seed, 0x4D4D)
    var = csit.error_variance
    dh = np.sqrt(var / 2.0) * (rng.standard_normal(h.shape)
                               + 1j * rng.standard_normal(h.shape))
    return h - dh


# ---------------------------------------------------------------------------
# File replay / statistics export


def load_channels_csv(path) -> np.ndarray:
    """Read channel realizations: one row per channel, interleaved re,im."""
    rows = []
    with open(path, newline="") as f:
        for row in csv.reader(f):
            if not row or row[0].lstrip().startswith("#"):
                continue
            vals = [float(v) for v in row]
            if len(vals) % 2 != 0:
                raise ValueError(f"{path}: row length must be even (re/im pairs)")
            rows.append([complex(vals[i], vals[i + 1]) for i in range(0, len(vals), 2)])
    return np.asarray(rows, dtype=complex)


def load_channels_json(path) -> np.ndarray:
    """Read channel realizations from JSON: list of rows of [re, im, re, im, ...]."""
    with open(path) as f:
        data = json.load(f)
    rows = []
    for vals in data:
        if len(vals) % 2 != 0:
            raise ValueError(f"{path}: row length must be even (re/im pairs)")
        rows.append([complex(vals[i], vals[i + 1]) for i in range(0, len(vals), 2)])
    return np.asarray(rows, dtype=complex)


def write_annulus_stats_csv(path, h: np.ndarray, total_power: float) -> None:
    """Emit per-realization annulus statistics with header ratio,r,R."""
    inner, outer = annulus_arrays(np.atleast_2d(h), total_power)
    ratio = np.where(outer > 0, inner / np.where(outer > 0, outer, 1.0), 0.0)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["ratio", "r", "R"])
        for q, r, R in zip(ratio, inner, outer):
            w.writerow([f"{q:.12g}", f"{r:.12g}", f"{R:.12g}"])
