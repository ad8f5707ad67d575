"""Monte Carlo engines: fixed-rate SER, CSIT sensitivity, variable rate.

Trials are processed in fixed-size chunks, each with its own counter-based
random stream keyed by (seed, scheme, chunk).  Chunk results are plain
counter sums reduced in chunk order, so the curves are bit-identical for
any worker count.  One data symbol is sent per channel realization.

Channel draws, symbols and unit noise are P-independent, and transmit
phases are invariant under a common power scaling, so each chunk maps its
symbols through the precoder once and replays the same realizations across
the whole SNR grid.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import CsitModel, _draw_channel, annulus_arrays
from .constellation import (med, modulus_ratio, qam_family, ser_union_bound,
                            union_bound_threshold)
from .optimizer import RegionTable
from .precoder import _BLOCK, transmit
from .rng import stream

# scheme -> (CLI command that runs it, region table it needs: the optimal
# or two-region table of size n, one optimal table per size, or none)
SCHEMES = {
    "proposed-optimal": ("ser", "optimal"),
    "proposed-suboptimal": ("ser", "suboptimal"),
    "fixed-qam16": ("ser", None),
    "adaptive-qam-psk": ("ser", None),
    "egt-qam16": ("ser", None),
    "variable-apsk": ("rate", "per-size"),
    "variable-qam": ("rate", None),
}
# the fixed-rate schemes without a region table send 16-QAM
_QAM16_SCHEMES = tuple(s for s, (cmd, table) in SCHEMES.items()
                       if cmd == "ser" and table is None)

DEFAULT_PATH_LOSS = 1e-9          # -90 dB
DEFAULT_NOISE_POWER = 10 ** (-12.4)  # -94 dBm in watts


@dataclass(frozen=True)
class SimConfig:
    m: int
    snr_db: tuple[float, ...]
    trials: int
    scheme: str
    n: int = 16
    sizes: tuple[int, ...] = (2, 4, 8, 16, 32, 64)
    target_ser: float = 1e-3
    path_loss: float = DEFAULT_PATH_LOSS
    noise_power: float = DEFAULT_NOISE_POWER
    seed: int = 0
    chunk_size: int = 100_000
    threads: int = 1
    debug_checks: bool = False

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; "
                             f"valid: {tuple(SCHEMES)}")
        for name in ("m", "threads", "chunk_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.scheme in _QAM16_SCHEMES and self.n != 16:
            raise ValueError(f"scheme {self.scheme} sends 16-QAM; n must be 16")
        if self.trials < 1000:
            raise ValueError("need at least 1e3 trials")
        if not (0.0 < self.target_ser < 1.0):
            raise ValueError("target_ser must lie in (0, 1)")
        snrs = tuple(float(s) for s in self.snr_db)
        if not all(map(math.isfinite, snrs)):
            raise ValueError("snr_db must be finite")
        if any(b <= a for a, b in zip(snrs, snrs[1:])) is True:
            raise ValueError("snr_db must be strictly increasing")
        object.__setattr__(self, "snr_db", snrs)

    def powers(self) -> np.ndarray:
        """Total transmit power per SNR grid point (SNR = P beta / sigma^2)."""
        snr_lin = 10.0 ** (np.asarray(self.snr_db) / 10.0)
        return snr_lin * self.noise_power / self.path_loss


@dataclass(frozen=True)
class SerCurve:
    snr_db: np.ndarray
    errors: np.ndarray
    trials: np.ndarray
    union_bound: np.ndarray | None = None

    @property
    def ser(self) -> np.ndarray:
        return self.errors / self.trials

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["snr_db", "ser", "errors", "trials"])
            for s, e, t in zip(self.snr_db, self.errors, self.trials):
                w.writerow([f"{s:g}", f"{e / t:.10e}", int(e), int(t)])


@dataclass(frozen=True)
class RateCurve:
    snr_db: np.ndarray
    avg_bits: np.ndarray
    no_tx_fraction: np.ndarray
    trials: int

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["snr_db", "avg_bits", "no_tx_fraction"])
            for s, b, q in zip(self.snr_db, self.avg_bits, self.no_tx_fraction):
                w.writerow([f"{s:g}", f"{b:.10e}", f"{q:.10e}"])


# ---------------------------------------------------------------------------
# Exact ML detection: w = y / (sqrt(P) R) -> label of the nearest point


class _RingTables:
    """Per-region unit-circle lookup tables of a proposed scheme's table.

    Row r of `unit` holds region r's outer then inner points at unit radius,
    computed as the point set is defined.  Each ring is also kept three times
    over in `re`/`im`/`label`, where floor(phase * scale + offset) indexes
    the ring point nearest in phase; the nearer of the two is the ML point.
    """

    def __init__(self, cfg: SimConfig, table: RegionTable | None):
        if (table is None or table.size != cfg.n
                or not all(1 <= reg.n2 < cfg.n for reg in table.regions)):
            raise ValueError(f"scheme {cfg.scheme} requires a two-ring region "
                             f"table for N={cfg.n}")
        n, regs = cfg.n, table.regions
        self.n1 = np.array([n - reg.n2 for reg in regs])
        self.unit = np.array([np.concatenate([
            np.exp(2j * np.pi * np.arange(n - reg.n2) / (n - reg.n2)),
            np.exp(1j * (2.0 * np.pi * np.arange(reg.n2) / reg.n2 + reg.omega2))])
            for reg in regs])
        flat, label, rings = [], [], []
        for unit, n1, reg in zip(self.unit, self.n1, regs):
            for first, k, om in ((0, n1, 0.0), (n1, reg.n2, reg.omega2)):
                om = math.remainder(om, 2.0 * math.pi) * k / (2.0 * math.pi)
                rings.append((k / (2.0 * math.pi), len(label) + k + 0.5 - om))
                flat += [unit[first:first + k]] * 3
                label += list(range(first, first + k)) * 3
        flat = np.concatenate(flat)
        self.re, self.im = flat.real.copy(), flat.imag.copy()
        self.label = np.array(label)
        # each (2, regions): row 0 for the outer ring, row 1 for the inner
        self.scale, self.offset = np.array(rings).reshape(-1, 2, 2).T

    def for_trials(self, idx, rho2, u):
        """Symbols u of the trials' regions, and the trials' ML detector."""
        s = self.unit[idx, u]
        inner = u >= self.n1[idx]
        s[inner] = rho2[inner] * s[inner]
        (f1, f2), (o1, o2) = self.scale[:, idx], self.offset[:, idx]

        def decide(wr, wi):
            phi = np.arctan2(wi, wr)
            j1 = (phi * f1 + o1).astype(np.intp)
            j2 = (phi * f2 + o2).astype(np.intp)
            d1 = (wr - self.re[j1]) ** 2 + (wi - self.im[j1]) ** 2
            d2 = (wr - rho2 * self.re[j2]) ** 2 + (wi - rho2 * self.im[j2]) ** 2
            # a tie goes to the outer ring, as argmin over outer-first points
            return self.label[np.where(d1 <= d2, j1, j2)]
        return s, decide


def _qam16_decide(wr, wi) -> np.ndarray:
    """qam_family(16) label (4 * real level + imaginary level) by slicing."""
    edges = np.array([-2.0, 0.0, 2.0]) / (3.0 * math.sqrt(2.0))
    return 4 * np.searchsorted(edges, wr) + np.searchsorted(edges, wi)


def _psk_decide(wr, wi, n: int) -> np.ndarray:
    """Label k of the nearest point exp(2j pi k / n) by phase rounding."""
    return np.rint(np.arctan2(wi, wr) * (n / (2.0 * np.pi))).astype(np.intp) % n


def _annulus(h, mags=None):
    """(r, R, r/R) at unit power; mags, when given, is |h|.  A zero-norm
    channel (R = 0) reaches only the origin; its R is returned as 0 and its
    ratio as 0, with no 0/0."""
    r0, big_r0 = annulus_arrays(h, 1.0, mags=mags)
    live = big_r0 > 0
    return r0, big_r0, np.where(live, r0 / np.where(live, big_r0, 1.0), 0.0)


def _receive(h, x):
    """Noise-free receive points sum_i h_i x_i, added antenna by antenna.
    The products are formed in x, which the caller must not need again."""
    np.multiply(h, x, out=x)
    total = x[:, 0].copy()
    for col in x.T[1:]:
        total += col
    return total


# ---------------------------------------------------------------------------
# Fixed-rate SER


def run_fixed_rate_ser(cfg: SimConfig, table: RegionTable | None) -> SerCurve:
    """Average SER over the SNR grid for one fixed-rate scheme."""
    if SCHEMES[cfg.scheme][0] != "ser":
        raise ValueError("use run_variable_rate for variable-rate schemes")
    rings = _RingTables(cfg, table) if SCHEMES[cfg.scheme][1] else None
    powers = cfg.powers()
    sigma = math.sqrt(cfg.noise_power)
    # all fixed-rate schemes share one stream key: common random numbers
    # make inter-scheme SNR-gap measurements far less noisy
    sid = 1
    qam16 = qam_family(16)
    psk16 = np.exp(2j * np.pi * np.arange(16) / 16)

    def one_chunk(chunk: int, t: int):
        rng = stream(cfg.seed, sid, chunk)
        h = _draw_channel(rng, cfg.m, t, cfg.path_loss)
        u = rng.integers(0, cfg.n, size=t)
        z = (rng.standard_normal(t) + 1j * rng.standard_normal(t)) / np.sqrt(2.0)
        r0, big_r0, ratio = _annulus(h)
        dmin_trial = None
        if rings is not None:
            idx, _, _, rho2 = table.params_at(ratio)
            s, decide = rings.for_trials(idx, rho2, u)
            dmin_trial = table.d_min_at(ratio)
        elif cfg.scheme == "adaptive-qam-psk":
            feas = ratio <= 1.0 / 3.0
            s = np.where(feas, qam16[u], psk16[u])
            def decide(wr, wi):
                return np.where(feas, _qam16_decide(wr, wi), _psk_decide(wr, wi, 16))
        else:  # fixed-qam16, egt-qam16
            s = qam16[u]
            decide = _qam16_decide
        if cfg.scheme == "fixed-qam16":  # clip each symbol into the annulus
            mod = np.abs(s)
            s = s / mod * np.clip(mod, ratio, 1.0)
        target = big_r0 * s
        if cfg.scheme == "egt-qam16":
            d0 = target  # linear precoding reaches R*s exactly
        else:
            d0 = _receive(h, transmit(h, 1.0, target))
            if cfg.debug_checks:
                mods = np.abs(d0)
                if not (np.all(mods <= big_r0 * (1 + 1e-9)) and
                        np.all(mods >= r0 * (1 - 1e-9) - 1e-12 * big_r0)):
                    raise RuntimeError("precoder output left the annulus")
        # w = y / (sqrt(p) R) = a + (sigma / sqrt(p)) b at every SNR point;
        # a zero-norm channel receives only noise: an error at every point
        live = big_r0 > 0
        scale = np.where(live, big_r0, 1.0)
        a, b = d0 / scale, z / scale
        sent = np.where(live, u, -1)
        ar, ai, br, bi = (np.ascontiguousarray(x)
                          for x in (a.real, a.imag, b.real, b.imag))
        errors, bound = np.zeros(powers.size, dtype=np.int64), np.zeros(powers.size)
        for k, p in enumerate(powers):
            sp = math.sqrt(p)
            c = sigma / sp
            errors[k] = np.count_nonzero(decide(ar + c * br, ai + c * bi) != sent)
            if dmin_trial is not None:
                bound[k] = ser_union_bound(cfg.n, dmin_trial, sp * big_r0,
                                           cfg.noise_power).sum()
        return errors, bound

    errors, bound = _reduce_chunks(cfg, one_chunk, powers.size)
    return SerCurve(snr_db=np.asarray(cfg.snr_db, dtype=float), errors=errors,
                    trials=np.full(powers.size, cfg.trials, dtype=np.int64),
                    union_bound=None if rings is None else bound / cfg.trials)


def _reduce_chunks(cfg: SimConfig, one_chunk, width: int):
    size = cfg.chunk_size
    bounds = [(c, min(size, cfg.trials - c * size))
              for c in range((cfg.trials + size - 1) // size)]
    errors, extra = np.zeros(width, dtype=np.int64), np.zeros(width)
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as ex:
            results = list(ex.map(lambda ct: one_chunk(*ct), bounds))
    else:
        results = [one_chunk(*ct) for ct in bounds]
    for e, b in results:
        errors += e
        extra += b
    return errors, extra


# ---------------------------------------------------------------------------
# Imperfect-CSIT sweep


def run_csit_sweep(cfg: SimConfig, table: RegionTable | None,
                   training_snr_db: tuple[float, ...]) -> SerCurve:
    """Average SER versus training SNR at a fixed data SNR (cfg.snr_db[0]),
    with perfect CSIT (training SNR inf) as the last point.

    The transmitter designs everything (annulus, constellation choice,
    phases, scale) from its channel estimate; the true channel produces the
    received sample; the receiver detects against the transmitter-intended
    scaled constellation.  A shared unit estimation-error draw couples the
    sweep points, so the SER trend in training SNR is monotone up to
    binomial noise.
    """
    if len(cfg.snr_db) != 1:
        raise ValueError("csit sweep uses a single data SNR")
    if cfg.scheme not in ("proposed-optimal", "proposed-suboptimal", "egt-qam16"):
        raise ValueError(f"csit sweep not defined for scheme {cfg.scheme!r}")
    rings = _RingTables(cfg, table) if SCHEMES[cfg.scheme][1] else None
    p = float(cfg.powers()[0])
    sigma, sp = math.sqrt(cfg.noise_power), math.sqrt(p)
    sid = 3  # shared across csit-swept schemes (common random numbers)
    axis = list(training_snr_db) + [math.inf]
    err_sd = [math.sqrt(CsitModel(10.0 ** (s / 10.0), cfg.path_loss).error_variance)
              for s in axis]
    qam16 = qam_family(16)

    def one_point(h, dh_unit, u, noise, sd):
        """Errors at one training point over one block of trials."""
        h_hat = h - sd * dh_unit
        mags = np.abs(h_hat)
        _, big_r0, ratio = _annulus(h_hat, mags)
        if rings is None:  # egt-qam16
            y = (np.sqrt(p / cfg.m) * np.sum(h * np.exp(-1j * np.angle(h_hat)),
                                             axis=1) * qam16[u] + noise)
            decide = _qam16_decide
        else:
            idx, _, _, rho2 = table.params_at(ratio)
            s, decide = rings.for_trials(idx, rho2, u)
            x = transmit(h_hat, 1.0, big_r0 * s, mags=mags)
            y = sp * _receive(h, x) + noise
        # a zero-norm estimate leaves nothing to scale by: an error
        live = big_r0 > 0
        w = y / (sp * np.where(live, big_r0, 1.0))
        return np.count_nonzero((decide(w.real, w.imag) != u) | ~live)

    def one_chunk(chunk: int, t: int):
        rng = stream(cfg.seed, sid, chunk)
        h = _draw_channel(rng, cfg.m, t, cfg.path_loss)
        u = rng.integers(0, cfg.n, size=t)
        z = (rng.standard_normal(t) + 1j * rng.standard_normal(t)) / np.sqrt(2.0)
        dh_unit = (rng.standard_normal((t, cfg.m))
                   + 1j * rng.standard_normal((t, cfg.m))) / np.sqrt(2.0)
        noise = sigma * z
        errors = np.zeros(len(err_sd), dtype=np.int64)
        # each block of trials stays in cache across all training points
        for lo in range(0, t, _BLOCK):
            rows = slice(lo, lo + _BLOCK)
            for k, sd in enumerate(err_sd):
                errors[k] += one_point(h[rows], dh_unit[rows], u[rows],
                                       noise[rows], sd)
        return errors, np.zeros(len(err_sd))

    errors, _ = _reduce_chunks(cfg, one_chunk, len(err_sd))
    return SerCurve(snr_db=np.asarray(axis, dtype=float), errors=errors,
                    trials=np.full(len(err_sd), cfg.trials, dtype=np.int64))


# ---------------------------------------------------------------------------
# Variable rate


def _qam_limits(n: int) -> tuple[float, float]:
    """(largest feasible annulus ratio, MED) of the size-n QAM benchmark."""
    pts = qam_family(n)
    return modulus_ratio(pts), med(pts).med


def _least_feasible(sqrt_p: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """(K, J) array of the least float x > 0 with sqrt_p[k] * x >= thresholds[j]
    as evaluated in floating point; inf where no such x exists.

    Floating-point multiplication is monotone in each factor, so the test
    `x > 0 and sqrt_p[k] * x >= thresholds[j]` is exactly `x >= least[k, j]`,
    and least[k, j] is non-increasing in k for a non-decreasing sqrt_p.
    """
    sp, thr = sqrt_p[:, None], thresholds[None, :]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = np.fmax(thr / sp, np.nextafter(0.0, 1.0))
        # the rounded quotient lies within an ulp or two of the answer
        while (up := sp * x < thr).any():
            x = np.where(up, np.nextafter(x, np.inf), x)
        while True:
            below = np.nextafter(x, 0.0)
            down = (below > 0) & (sp * below >= thr)
            if not down.any():
                return x
            x = np.where(down, below, x)


def _rate_counts(xs, t: int, least: np.ndarray, step: np.ndarray):
    """(no-tx count, bit sum) at each SNR point over t trials.

    xs yields, for each size j in ascending order, the trials' R * d_min
    (0 when infeasible); least comes from _least_feasible, and step[j] is
    the bits size j adds over the next smaller one.
    """
    k_pts = least.shape[0]
    # first[j, i]: first SNR index at which size j is feasible (k_pts: none),
    # i.e. k_pts less the number of points k with x_j[i] >= least[k, j]
    first = np.empty((step.size, t), dtype=np.intp)
    for j, (cuts, x) in enumerate(zip(least[::-1].T, xs)):
        first[j] = np.searchsorted(cuts, x, side="right")
    np.subtract(k_pts, first, out=first)
    # now the first index at which the largest feasible size is j or larger
    for j in range(len(first) - 2, -1, -1):
        np.minimum(first[j], first[j + 1], out=first[j])
    at_least = np.cumsum([np.bincount(f, minlength=k_pts + 1)[:k_pts]
                          for f in first], axis=1)
    return t - at_least[0], step @ at_least


def run_variable_rate(cfg: SimConfig,
                      tables: dict[int, RegionTable] | None) -> RateCurve:
    """Average spectral efficiency of the variable-rate scheme.

    Each trial sends the largest size whose R * d_min is positive and meets
    its union-bound threshold at that SNR point, or nothing.  Feasibility is
    monotone in SNR, so one pass per chunk finds, for every trial and size,
    the first SNR point at which that size or a larger one is feasible; a
    histogram of those indices gives every point's bit and no-tx counts.
    """
    if SCHEMES[cfg.scheme][0] != "rate":
        raise ValueError(f"not a variable-rate scheme: {cfg.scheme!r}")
    if SCHEMES[cfg.scheme][1] and (tables is None
                                   or any(n not in tables for n in cfg.sizes)):
        raise ValueError(f"{cfg.scheme} needs a region table per size")
    powers = cfg.powers()
    sizes = np.asarray(sorted(cfg.sizes))
    # bits gained by each size over the next smaller one
    step = np.diff(np.log2(sizes), prepend=0.0)
    thresholds = np.array([union_bound_threshold(n, cfg.target_ser,
                                                 cfg.noise_power) for n in sizes])
    least = _least_feasible(np.sqrt(powers), thresholds)
    sid = 2  # shared between variable-rate schemes (common random numbers)
    if cfg.scheme == "variable-qam":
        feas_ratio, qam_dmin = np.array([_qam_limits(int(n)) for n in sizes]).T

    def one_chunk(chunk: int, t: int):
        rng = stream(cfg.seed, sid, chunk)
        h = _draw_channel(rng, cfg.m, t, cfg.path_loss)
        _, big_r0, ratio = _annulus(h)
        # per-trial R*d_min for each candidate size in turn (0 = infeasible)
        if cfg.scheme == "variable-apsk":
            xs = (big_r0 * tables[int(n)].d_min_at(ratio) for n in sizes)
        else:
            xs = (np.where(ratio <= fr, big_r0 * d, 0.0)
                  for fr, d in zip(feas_ratio, qam_dmin))
        return _rate_counts(xs, t, least, step)

    no_tx, bit_sum = _reduce_chunks(cfg, one_chunk, powers.size)
    return RateCurve(snr_db=np.asarray(cfg.snr_db, dtype=float),
                     avg_bits=bit_sum / cfg.trials,
                     no_tx_fraction=no_tx / cfg.trials,
                     trials=cfg.trials)


# ---------------------------------------------------------------------------
# Curve post-processing


def _crossing(snr_db, values, target: float, what: str) -> float:
    """SNR (dB) where `values` first reaches the target, linearly interpolated."""
    for i in range(len(values) - 1):
        a, b = values[i], values[i + 1]
        if (a - target) * (b - target) <= 0 and a != b:
            frac = (target - a) / (b - a)
            return float(snr_db[i] + frac * (snr_db[i + 1] - snr_db[i]))
    raise ValueError(f"curve never {what}")


def snr_at_ser(curve: SerCurve, target: float) -> float:
    """SNR (dB) where the curve crosses the target SER, by log-linear
    interpolation between grid points."""
    return _crossing(curve.snr_db, np.log10(np.maximum(curve.ser, 1e-300)),
                     math.log10(target), f"crosses SER {target:g}")


def snr_at_bits(curve: RateCurve, target: float) -> float:
    """SNR (dB) where average spectral efficiency reaches the target."""
    return _crossing(curve.snr_db, curve.avg_bits, target,
                     f"reaches {target:g} bits")
