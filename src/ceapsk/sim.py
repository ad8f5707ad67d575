"""Monte Carlo engines: fixed-rate SER, CSIT sensitivity, variable rate.

Trials are processed in chunks of CHUNK_SIZE, each with its own
counter-based random stream keyed by (seed, engine, chunk): common random
numbers across an engine's schemes make inter-scheme SNR gaps far less
noisy.  Chunk results are plain counter sums reduced in chunk order, so the
curves are bit-identical for any worker count.  One data symbol is sent per
channel realization.

SCHEMES holds every per-scheme fact, as data: its CLI command, its region
table (TABLE_SIZE points, one per size in SIZES, or none), whether the CSIT
sweep runs it, and whether a fixed-rate scheme without a table clips 16-QAM
into the annulus, switches to 16-PSK where 16-QAM does not fit, or sends it
by equal-gain transmission.  check_scheme is the one scheme check.

Channel draws, symbols and unit noise are P-independent, and transmit
phases are invariant under a common power scaling, so each chunk maps its
symbols through the precoder once and replays the same realizations across
the whole SNR grid.  The fixed-rate engine precodes only the trials whose
noise may carry the receive point out of the sent point's decision cell at
the first, noisiest point, and detects only the (trial, point) pairs where
it may.  Its averaged union bound is computed (union_bound_curve) only when
SerCurve.union_bound is first read.

The CSIT sweep and the variable-rate engine draw each chunk at once, in
stream order, then work through it in blocks of precoder._BLOCK rows, so
their temporaries stay in cache.  Variable-rate selection places each
trial's R * d_min among per-size SNR cuts with an exact table lookup
(optimizer._CellSearch) built once per run.
"""

from __future__ import annotations

import csv
import math
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel import _complex_normal, _draw_channel, annulus_arrays
from .constellation import (med, modulus_ratio, qam_family, ser_union_bound,
                            union_bound_threshold)
from .optimizer import RegionTable, _CellSearch
from .precoder import _BLOCK, _receive, transmit
from .rng import stream

Scheme = namedtuple("Scheme", "command table csit qam16")
SCHEMES = {
    "proposed-optimal": Scheme("ser", "optimal", True, None),
    "proposed-suboptimal": Scheme("ser", "suboptimal", True, None),
    "fixed-qam16": Scheme("ser", None, False, "clip"),
    "adaptive-qam-psk": Scheme("ser", None, False, "switch"),
    "egt-qam16": Scheme("ser", None, True, "egt"),
    "variable-apsk": Scheme("rate", "per-size", False, None),
    "variable-qam": Scheme("rate", None, False, None),
}
TABLE_SIZE = 16  # N of a fixed-rate scheme's region table
# engine -> the schemes it runs; "csit" is the CSIT sweep
ENGINE_SCHEMES = {e: tuple(s for s, f in SCHEMES.items()
                           if (f.csit if e == "csit" else f.command == e))
                  for e in ("ser", "csit", "rate")}
_STREAMS = {"ser": 1, "rate": 2, "csit": 3}  # engine -> its stream key

# Results depend on these only through SNR = P beta / sigma^2: powers() sets
# P from the SNR, so beta and sigma^2 scale out of every curve.
PATH_LOSS = 1e-9               # beta, -90 dB
NOISE_POWER = 10 ** (-12.4)    # sigma^2, -94 dBm in watts
SIZES = (2, 4, 8, 16, 32, 64)  # the variable-rate schemes' constellation sizes
CHUNK_SIZE = 100_000  # trials per chunk, and so per random stream


@dataclass(frozen=True)
class SimConfig:
    m: int
    snr_db: tuple[float, ...]
    trials: int
    scheme: str
    target_ser: float = 1e-3
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; "
                             f"valid: {tuple(SCHEMES)}")
        for name in ("m", "threads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.trials < 1000:
            raise ValueError("need at least 1e3 trials")
        if not (0.0 < self.target_ser < 1.0):
            raise ValueError("target_ser must lie in (0, 1)")
        snrs = tuple(float(s) for s in self.snr_db)
        if not all(map(math.isfinite, snrs)):
            raise ValueError("snr_db must be finite")
        if not snrs:
            raise ValueError("snr_db needs at least one point")
        if any(b <= a for a, b in zip(snrs, snrs[1:])):
            raise ValueError("snr_db must be strictly increasing")
        object.__setattr__(self, "snr_db", snrs)

    def powers(self) -> np.ndarray:
        """Total transmit power per SNR grid point (SNR = P beta / sigma^2)."""
        snr_lin = 10.0 ** (np.asarray(self.snr_db) / 10.0)
        return snr_lin * NOISE_POWER / PATH_LOSS


def check_scheme(cfg: SimConfig, engine: str) -> Scheme:
    """SCHEMES[cfg.scheme] if `engine` runs it, else a ValueError naming it
    and the schemes that engine runs; the CSIT sweep needs one data SNR."""
    valid = ENGINE_SCHEMES[engine]
    if cfg.scheme not in valid:
        raise ValueError(f"the {engine} engine does not run scheme "
                         f"{cfg.scheme!r}; valid: {', '.join(valid)}")
    if engine == "csit" and len(cfg.snr_db) != 1:
        raise ValueError("csit sweep uses a single data SNR")
    return SCHEMES[cfg.scheme]


@dataclass(frozen=True)
class SerCurve:
    snr_db: np.ndarray
    errors: np.ndarray
    trials: np.ndarray
    # (cfg, table) of a fixed-rate run of a proposed scheme, else None
    bound_args: tuple | None = field(default=None, repr=False, compare=False)

    @cached_property
    def union_bound(self) -> np.ndarray | None:
        """union_bound_curve(*bound_args), computed when first read; None
        for a curve without a region table."""
        return None if self.bound_args is None else union_bound_curve(
            *self.bound_args)

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

# a receive point within this many MEDs of the sent point is detected as sent
_SAFE_RADIUS = 0.45


def _check_two_ring_table(table: RegionTable | None) -> None:
    if table is None or not all(1 <= reg.n2 < table.size
                                for reg in table.regions):
        raise ValueError("a proposed scheme requires a two-ring region table")


class _RingTables:
    """Per-region unit-circle lookup tables of a proposed scheme's table.

    Row r of `unit` holds region r's outer then inner points at unit radius,
    computed as the point set is defined.  Each ring is also kept three times
    over in `re`/`im`/`label`, where floor(phase * scale + offset) indexes
    the ring point nearest in phase; the nearer of the two is the ML point.
    """

    def __init__(self, table: RegionTable | None):
        _check_two_ring_table(table)
        n, regs = table.size, table.regions
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

    def symbols(self, idx, rho2, u):
        """Symbols u of the trials' regions, at unit outer radius."""
        s = self.unit.ravel()[idx * self.unit.shape[1] + u]
        return s * np.where(u >= self.n1[idx], rho2, 1.0)

    def detector(self, idx, rho2):
        """ML detector of the trials' constellations.  It takes the receive
        points of any leading prefix of those trials."""
        (f1, f2), (o1, o2) = self.scale[:, idx], self.offset[:, idx]

        def decide(wr, wi):
            rows = wr.size
            phi = np.arctan2(wi, wr)
            j1 = (phi * f1[:rows] + o1[:rows]).astype(np.intp)
            j2 = (phi * f2[:rows] + o2[:rows]).astype(np.intp)
            r2 = rho2[:rows]
            d1 = (wr - self.re[j1]) ** 2 + (wi - self.im[j1]) ** 2
            d2 = (wr - r2 * self.re[j2]) ** 2 + (wi - r2 * self.im[j2]) ** 2
            # a tie goes to the outer ring, as argmin over outer-first points
            return self.label[np.where(d1 <= d2, j1, j2)]
        return decide


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


# ---------------------------------------------------------------------------
# Fixed-rate SER


def run_fixed_rate_ser(cfg: SimConfig, table: RegionTable | None) -> SerCurve:
    """Average SER over the SNR grid for one fixed-rate scheme.

    At SNR point k the detector sees w = a + c_k b: a is the noise-free
    receive point and b the noise, both over sqrt(p) R, and c_k falls as the
    SNR rises.  Only the (trial, point) pairs where the noise may carry w
    out of the sent label's decision cell reach the detector, and only the
    trials with such a pair reach the precoder; every other pair is
    provably detected correctly.  Let s be the trial's target over R (its
    symbol at unit outer radius, clipped into the annulus for fixed-qam16),
    `center` the label's own point (for fixed-qam16 the unclipped 16-QAM
    point) and d_cell the MED of the trial's constellation.  The precoder
    hits its target to within 1e-9 R, |a - s| <= 1e-9, which is checked on
    every precoded trial.  A pair is skipped at point k when

        c_k |b| < slack = _SAFE_RADIUS d_cell - |s - center| - 1e-9.

    Then |w - center| < 0.45 d_cell < d_cell / 2, so `center` is the unique
    nearest point and the exact ML detectors return the sent label.  The
    0.05 d_cell margin dwarfs float rounding, and on the N = 8 to 64 tables
    d_min_at overstates the true MED by at most 1e-12 (relative).
    c_k |b| never rises with k, so a trial safe at the first point is never
    precoded.  The averaged union bound of the proposed schemes is the
    returned curve's union_bound, computed when it is first read.
    """
    facts = check_scheme(cfg, "ser")
    rings = _RingTables(table) if facts.table else None
    size = 16 if rings is None else table.size
    sigma = math.sqrt(NOISE_POWER)
    cs = [sigma / math.sqrt(p) for p in cfg.powers()]
    qam16 = qam_family(16)
    psk16 = np.exp(2j * np.pi * np.arange(16) / 16)
    qam16_med, psk16_med = med(qam16), med(psk16)

    def one_chunk(chunk: int, t: int):
        rng = stream(cfg.seed, _STREAMS["ser"], chunk)
        h = _draw_channel(rng, cfg.m, t, PATH_LOSS)
        u = rng.integers(0, size, size=t)
        z = _complex_normal(rng, t)
        z /= np.sqrt(2.0)
        r0, big_r0, ratio = _annulus(h)
        # each trial's slack, and pick(rows): the symbols s and the ML
        # detector of the trials `rows`, which takes the receive points of
        # any leading prefix of those trials
        if rings is not None:
            idx = table.index(ratio)
            slack = _SAFE_RADIUS * table.d_min_at(ratio, idx) - 1e-9
            def pick(rows):  # only the trials that reach the precoder
                i = idx[rows]
                _, _, _, rho2 = table.params_at(ratio[rows], i)
                return rings.symbols(i, rho2, u[rows]), rings.detector(i, rho2)
        elif facts.qam16 == "switch":
            feas = ratio <= modulus_ratio(qam16)
            s = np.where(feas, qam16[u], psk16[u])
            slack = _SAFE_RADIUS * np.where(feas, qam16_med, psk16_med) - 1e-9
            def pick(rows):
                qam = feas[rows]
                return s[rows], lambda wr, wi: np.where(
                    qam[:wr.size], _qam16_decide(wr, wi),
                    _psk_decide(wr, wi, 16))
        else:
            s = qam16[u]
            slack = _SAFE_RADIUS * qam16_med - 1e-9
            if facts.qam16 == "clip":
                mod = np.abs(s)
                clipped = s / mod * np.clip(mod, ratio, 1.0)
                slack = slack - np.abs(clipped - s)
                s = clipped
            def pick(rows):
                return s[rows], _qam16_decide
        # w = y / (sqrt(p) R) = a + (sigma / sqrt(p)) b at every SNR point;
        # a zero-norm channel receives only noise: an error at every point
        live = big_r0 > 0
        scale = np.where(live, big_r0, 1.0)
        b = np.divide(z, scale, out=z)
        mb = np.abs(b)
        # a zero-norm trial is never safe: it is detected, and errs, everywhere
        slack = np.where(live, slack, -np.inf)
        # the trials that may err at the first point, the only ones that may
        # err at all
        pre = np.flatnonzero(~(cs[0] * mb < slack))
        mb, slack = mb[pre], slack[pre]
        # unsafe[i]: the number of points at which trial pre[i] may err.
        # c_k * |b| never rises with k, so those points are the first
        # unsafe[i] ones.
        unsafe = np.ones(pre.size, dtype=np.min_scalar_type(len(cs)))
        for c in cs[1:]:
            unsafe += ~(c * mb < slack)
        # most unsafe first; a small key dtype lets numpy radix-sort
        order = np.argsort(len(cs) - unsafe, kind="stable")
        # prefix[k]: the trials unsafe at point k are kept[:prefix[k]]
        hist = np.bincount(unsafe, minlength=len(cs) + 1)
        prefix = np.cumsum(hist[::-1])[-2::-1]
        # all arrays below are over these trials, in this order
        kept = pre[order]
        s, decide = pick(kept)
        big_r0, scale, live = big_r0[kept], scale[kept], live[kept]
        target = big_r0 * s
        if facts.qam16 == "egt":
            a = target / scale  # linear precoding reaches R*s exactly
        else:
            d0 = _receive(h[kept], transmit(h[kept], 1.0, target))
            a = d0 / scale
            r0 = r0[kept]
            for lo in range(0, kept.size, _BLOCK):  # no chunk-sized |d0|
                rows = slice(lo, lo + _BLOCK)
                mods, big_r = np.abs(d0[rows]), big_r0[rows]
                if not (np.all(mods <= big_r * (1 + 1e-9)) and
                        np.all(mods >= r0[rows] * (1 - 1e-9) - 1e-12 * big_r)):
                    raise RuntimeError("precoder output left the annulus")
                # the skip rests on |a - s| <= 1e-9; a zero-norm trial has
                # a = 0 and is never skipped
                if not np.all((np.abs(a[rows] - s[rows]) <= 1e-9) | ~live[rows]):
                    raise RuntimeError("precoder output missed its target")
        b = b[kept]
        sent = np.where(live, u[kept], -1)
        ar, ai, br, bi = a.real, a.imag, b.real, b.imag
        errors = np.zeros(len(cs), dtype=np.int64)
        for k, (c, n) in enumerate(zip(cs, prefix)):
            errors[k] = np.count_nonzero(
                decide(ar[:n] + c * br[:n], ai[:n] + c * bi[:n]) != sent[:n])
        return (errors,)

    errors, = _reduce_chunks(cfg, one_chunk)
    return SerCurve(snr_db=np.asarray(cfg.snr_db, dtype=float), errors=errors,
                    trials=np.full(len(cs), cfg.trials, dtype=np.int64),
                    bound_args=None if rings is None else (cfg, table))


def union_bound_curve(cfg: SimConfig, table: RegionTable | None) -> np.ndarray:
    """Averaged union bound min(1, (N-1) Q(R d_min / (sigma sqrt 2))) per SNR
    point of run_fixed_rate_ser(cfg, table), for a proposed scheme.

    The channel is the first draw of each chunk's stream, so only it is
    redrawn; the bound is summed over the engine's trials in row blocks,
    chunk by chunk, in a fixed order, so the values do not depend on
    cfg.threads.
    """
    if check_scheme(cfg, "ser").table is None:
        raise ValueError(f"no union bound for scheme {cfg.scheme!r}")
    _check_two_ring_table(table)
    sps = [math.sqrt(p) for p in cfg.powers()]

    def one_chunk(chunk: int, t: int):
        h = _draw_channel(stream(cfg.seed, _STREAMS["ser"], chunk), cfg.m, t,
                          PATH_LOSS)
        _, big_r0, ratio = _annulus(h)
        d_cell = table.d_min_at(ratio)
        bound = np.zeros(len(sps))
        for lo in range(0, t, _BLOCK):
            block = slice(lo, lo + _BLOCK)
            for k, sp in enumerate(sps):
                bound[k] += ser_union_bound(table.size, d_cell[block],
                                            sp * big_r0[block],
                                            NOISE_POWER).sum()
        return (bound,)

    bound, = _reduce_chunks(cfg, one_chunk)
    return bound / cfg.trials


def _reduce_chunks(cfg: SimConfig, one_chunk):
    """Element-wise sums, added in chunk order, of the tuples of arrays that
    one_chunk(chunk, trials) returns for the chunks of cfg.trials."""
    size = CHUNK_SIZE
    bounds = [(c, min(size, cfg.trials - c * size))
              for c in range((cfg.trials + size - 1) // size)]
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as ex:
            results = list(ex.map(lambda ct: one_chunk(*ct), bounds))
    else:
        results = [one_chunk(*ct) for ct in bounds]
    return [sum(parts, np.zeros_like(parts[0])) for parts in zip(*results)]


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

    The precoder and the detector run only on the (trial, training point)
    pairs that may err.  Write delta for the unit error draw, so that
    h = h_hat + sd delta, and let s be the symbol at unit outer radius and
    R the estimate's outer radius at unit power.  The precoder hits its
    target, h_hat . x = R s, with every |x_i| = 1 / sqrt(M); so w - s =
    (sd delta . x + n / sqrt(p)) / R and

        |w - s| <= (sd |delta|_1 / sqrt(M) + |n| / sqrt(p)) / R.

    A pair is skipped, with no transmit signal formed, when that bound is
    below _SAFE_RADIUS d_cell (d_cell the MED of the trial's constellation):
    then |w - s| < 0.45 d_cell < d_cell / 2 and the exact ML detectors
    return the sent label, as in run_fixed_rate_ser.  On a skipped pair
    |h|_1 <= (1 + 0.45 d_cell) |h_hat|_1 <= 1.9 |h_hat|_1, so float rounding
    stays at ulp scale, far below the 0.05 d_cell margin.  The pairs left
    go through the precoder, and on to the detector only if |w - s| >=
    _SAFE_RADIUS d_cell.  A zero-norm estimate (R = 0) is an error, never
    detected.  egt-qam16 takes the same test with the 16-QAM MED: its
    w - q_u = (sd delta . e q_u / sqrt(M) + n / sqrt(p)) / R, with |e_i| = 1,
    obeys the bound because |q_u| <= 1.
    """
    rings = _RingTables(table) if check_scheme(cfg, "csit").table else None
    training = tuple(float(s) for s in training_snr_db)
    if not all(map(math.isfinite, training)):
        raise ValueError("training SNRs must be finite")
    size = 16 if rings is None else table.size
    p = float(cfg.powers()[0])
    sigma, sp = math.sqrt(NOISE_POWER), math.sqrt(p)
    axis = list(training) + [math.inf]
    # MMSE estimation: error variance beta / (1 + training SNR) per antenna
    err_sd = [math.sqrt(PATH_LOSS / (1.0 + 10.0 ** (s / 10.0))) for s in axis]
    qam16 = qam_family(16)
    qam16_med = med(qam16)

    def one_point(h, dh_unit, u, noise, spread, sd):
        """Errors at one training point over one block of trials; spread is
        the bound's (|dh_unit|_1 / sqrt(M), |noise| / sqrt(p)) per trial."""
        h_hat = h - sd * dh_unit
        mags = np.abs(h_hat)
        _, big_r0, ratio = _annulus(h_hat, mags)
        if rings is None:  # egt-qam16
            d_cell = qam16_med
        else:
            idx = table.index(ratio)
            d_cell = table.d_min_at(ratio, idx)
        # a zero-norm estimate leaves nothing to scale by: an error
        live = big_r0 > 0
        errors = big_r0.size - np.count_nonzero(live)
        bound = sd * spread[0] + spread[1]
        rows = np.flatnonzero((bound >= _SAFE_RADIUS * d_cell * big_r0) & live)
        # the full-block arrays are dropped as their kept rows are taken
        h_hat, mags, u, big_r0 = h_hat[rows], mags[rows], u[rows], big_r0[rows]
        if rings is None:
            s = qam16[u]
            y = (np.sqrt(p / cfg.m)
                 * np.sum(h[rows] * np.exp(-1j * np.angle(h_hat)), axis=1)
                 * s + noise[rows])
        else:
            idx, d_cell = idx[rows], d_cell[rows]
            _, _, _, rho2 = table.params_at(ratio[rows], idx)
            s = rings.symbols(idx, rho2, u)
            x = transmit(h_hat, 1.0, big_r0 * s, mags=mags)
            y = sp * _receive(h[rows], x) + noise[rows]
        w = y / (sp * big_r0)
        far = np.flatnonzero(np.abs(w - s) >= _SAFE_RADIUS * d_cell)
        decide = (_qam16_decide if rings is None
                  else rings.detector(idx[far], rho2[far]))
        return errors + np.count_nonzero(decide(w.real[far], w.imag[far])
                                         != u[far])

    def one_chunk(chunk: int, t: int):
        rng = stream(cfg.seed, _STREAMS["csit"], chunk)
        h = _draw_channel(rng, cfg.m, t, PATH_LOSS)
        u = rng.integers(0, size, size=t)
        noise = _complex_normal(rng, t)
        noise /= np.sqrt(2.0)
        noise *= sigma
        dh_unit = _complex_normal(rng, (t, cfg.m))
        dh_unit /= np.sqrt(2.0)
        errors = np.zeros(len(err_sd), dtype=np.int64)
        # each block of trials stays in cache across all training points
        for lo in range(0, t, _BLOCK):
            rows = slice(lo, lo + _BLOCK)
            hb, db, ub, nb = h[rows], dh_unit[rows], u[rows], noise[rows]
            spread = (np.abs(db).sum(axis=1) / math.sqrt(cfg.m),
                      np.abs(nb) / sp)
            for k, sd in enumerate(err_sd):
                errors[k] += one_point(hb, db, ub, nb, spread, sd)
        return (errors,)

    errors, = _reduce_chunks(cfg, one_chunk)
    return SerCurve(snr_db=np.asarray(axis, dtype=float), errors=errors,
                    trials=np.full(len(err_sd), cfg.trials, dtype=np.int64))


# ---------------------------------------------------------------------------
# Variable rate


def _qam_limits(n: int) -> tuple[float, float]:
    """(largest feasible annulus ratio, MED) of the size-n QAM benchmark."""
    pts = qam_family(n)
    return modulus_ratio(pts), med(pts)


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


def _rate_counts(xs, searches, step: np.ndarray):
    """(no-tx count, bit sum) at each SNR point over one block of trials.

    xs yields, for each size j in ascending order, the trials' R * d_min
    (0 when infeasible).  searches[j] is _CellSearch(least[::-1, j]), with
    least from _least_feasible: it counts the SNR points k with
    least[k, j] <= x, at which size j is feasible.  step[j] is the bits
    size j adds over the next smaller one.
    """
    k_pts = searches[0].size
    # feasible[j, i]: the number of SNR points at which size j is feasible
    # for trial i; they are the last ones, as least[k, j] falls with k
    feasible = np.array([search(x) for search, x in zip(searches, xs)])
    # now the number at which the largest feasible size is j or larger
    for j in range(len(feasible) - 2, -1, -1):
        np.maximum(feasible[j], feasible[j + 1], out=feasible[j])
    # at_least[j, k]: the trials sending size j or larger at point k, i.e.
    # those feasible at k_pts - k points or more
    at_least = np.cumsum([np.bincount(f, minlength=k_pts + 1)[:0:-1]
                          for f in feasible], axis=1)
    return feasible.shape[1] - at_least[0], step @ at_least


def run_variable_rate(cfg: SimConfig,
                      tables: dict[int, RegionTable] | None) -> RateCurve:
    """Average spectral efficiency of the variable-rate scheme.

    Each trial sends the largest size whose R * d_min is positive and meets
    its union-bound threshold at that SNR point, or nothing.  Feasibility is
    monotone in SNR, so one pass finds, for every trial and size, the
    number of SNR points at which that size or a larger one is feasible; a
    histogram of those counts gives every point's bit and no-tx counts.
    Each chunk draws its channels at once, as its stream orders them, then
    runs the annulus, the MED lookups and the counts in blocks of _BLOCK
    trials, whose temporaries stay in cache.  The bit steps of SIZES are
    integers, so the block sums are exact.
    """
    per_size = check_scheme(cfg, "rate").table
    if per_size and (tables is None or any(n not in tables for n in SIZES)):
        raise ValueError(f"{cfg.scheme} needs a region table per size")
    powers = cfg.powers()
    sizes = np.asarray(SIZES)
    # bits gained by each size over the next smaller one
    step = np.diff(np.log2(sizes), prepend=0.0)
    thresholds = np.array([union_bound_threshold(n, cfg.target_ser,
                                                 NOISE_POWER) for n in sizes])
    least = _least_feasible(np.sqrt(powers), thresholds)
    searches = [_CellSearch(cuts) for cuts in least[::-1].T]
    if not per_size:
        feas_ratio, qam_dmin = np.array([_qam_limits(int(n)) for n in sizes]).T

    def one_chunk(chunk: int, t: int):
        rng = stream(cfg.seed, _STREAMS["rate"], chunk)
        h = _draw_channel(rng, cfg.m, t, PATH_LOSS)
        blocks = []
        for lo in range(0, t, _BLOCK):
            _, big_r0, ratio = _annulus(h[lo:lo + _BLOCK])
            # per-trial R*d_min for each size in turn (0 = infeasible)
            if per_size:
                xs = (big_r0 * tables[int(n)].d_min_at(ratio) for n in sizes)
            else:
                xs = (np.where(ratio <= fr, big_r0 * d, 0.0)
                      for fr, d in zip(feas_ratio, qam_dmin))
            blocks.append(_rate_counts(xs, searches, step))
        return tuple(sum(parts) for parts in zip(*blocks))

    no_tx, bit_sum = _reduce_chunks(cfg, one_chunk)
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
